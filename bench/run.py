"""qtheta benchmark.

    python3 bench/run.py --workload corpus|deep|eliminate --seed N \
        --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src/``.  One
process, one client, one op at a time (a closed loop).  A run sets up
(import, ``load_registry()``, drawing the ops) several times and keeps the
median, then runs passes of the workload until one more pass, as slow as
the slowest so far, would end after ``--seconds``.  Each pass after the
first draws fresh inputs from the seed.  Times are reported at reference
speed (see ``ref_time``).  Every op's result is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each of
pass 0's ops untraced and then traced, pass after pass, and reports the
per-layer metrics (see ``tracer.py``) plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are for
people.  ``--spans FILE`` also writes the last traced pass's spans.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from math import gcd

from tracer import COUNTED, Tracer, percentile
from workloads import WORKLOADS, VerifyWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 9

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Reference work: a fixed 48 x 48 convolution of 512-bit integers and a gcd
# sweep over the result, the instruction mix of series.mul and _make but no
# qtheta code, so no change to qtheta can move it.
_REF_RNG = random.Random(20240601)
_REF_A = [_REF_RNG.getrandbits(512) for _ in range(48)]
_REF_B = [_REF_RNG.getrandbits(512) for _ in range(48)]
REF_NOMINAL_S = 0.00125


def per_layer_units():
    units = {}
    for name in COUNTED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update({
        "series.mul.short_len_p50": "terms",
        "series.mul.short_len_p90": "terms",
        "series.mul.binomial_share": "ratio",
        "series.divide.binomial_share": "ratio",
        "series.divide.fraction_path_share": "ratio",
        "eliminator.build_system.total_s": "s",
        "eliminator.gauss_solve.total_s": "s",
        "eliminator.check_s": "s",
        "verifier.guard_mean": "qpow",
        "verifier.prec_surplus_mean": "qpow",
        "coef_bits_peak": "bits",
        "identities.load_registry.total_s": "s",
        "dsl.parse.calls": "count",
        "trace_overhead_frac": "ratio",
    })
    return units


def fail(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


def fresh_import():
    for name in [n for n in sys.modules if n == "qtheta" or n.startswith("qtheta.")]:
        del sys.modules[name]
    Q = importlib.import_module("qtheta")
    if not os.path.abspath(Q.__file__).startswith(SRC + os.sep):
        fail("imported qtheta from %s, not from the checkout" % Q.__file__)
    return Q


def ref_time():
    """Best of two timings of the reference work.

    The host the bounds were set on slows all work by up to 2x, in bursts of
    about a second and in drifts over minutes, with CPU time equal to wall
    time.  A time t measured between reference timings r1 and r2 is
    reported at reference speed, t * REF_NOMINAL_S / ((r1 + r2) / 2): the
    time it would take when the reference work takes REF_NOMINAL_S.  The
    scaling cancels most of the drift; both times are printed.
    """
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        out = [0] * (len(_REF_A) + len(_REF_B) - 1)
        for i, x in enumerate(_REF_A):
            for j, y in enumerate(_REF_B):
                out[i + j] += x * y
        g = 0
        for v in out:
            g = gcd(g, v)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def at_ref_speed(t, r1, r2):
    """Time t, measured between reference timings r1 and r2, at reference speed."""
    return t * REF_NOMINAL_S * 2 / (r1 + r2)


def setup(wl, seed):
    """Import, load the registry and draw pass 0, SETUP_REPEATS times.

    Returns the median set-up time at reference speed, and raw.
    """
    raw, scaled = [], []
    r_prev = ref_time()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        Q = fresh_import()
        registry = Q.load_registry()
        ops = wl.make_ops(registry, seed, 0)
        raw.append(time.perf_counter() - t0)
        r = ref_time()
        scaled.append(at_ref_speed(raw[-1], r_prev, r))
        r_prev = r
    return Q, registry, ops, statistics.median(scaled), statistics.median(raw)


def run_op(wl, Q, op):
    """Run and check one op; returns (latency_s, output or None, ok)."""
    t0 = time.perf_counter()
    try:
        ok, out = wl.run_op(Q, op)
    except Exception:  # an op that raises is counted as failed, not fatal
        traceback.print_exc(file=sys.stderr)
        ok, out = False, None
    lat = time.perf_counter() - t0
    if not ok:
        print("bench: op failed: %r" % (op,), file=sys.stderr)
    return lat, out, ok


def run_pass(wl, Q, ops):
    """Run ops one at a time, timing the reference work between them.

    Returns (latencies_s, latencies at reference speed, outputs, failed).
    """
    lat, scaled, outputs = [], [], []
    failed = 0
    r_prev = ref_time()
    for op in ops:
        t, out, ok = run_op(wl, Q, op)
        r = ref_time()
        lat.append(t)
        scaled.append(at_ref_speed(t, r_prev, r))
        outputs.append(out)
        failed += not ok
        r_prev = r
    return lat, scaled, outputs, failed


def digest(wl, Q, outputs):
    if any(o is None for o in outputs):
        return None
    return wl.digest(Q, outputs)


def best_per_op(passes):
    """Each op's best time over passes of the same ops."""
    return [min(ts) for ts in zip(*passes)]


def untraced_run(wl, seed, seconds, Q, registry, ops0, setup_s, setup_raw):
    start = time.perf_counter()
    walls, walls_raw, lats, lats_raw, spent = [], [], [], [], []
    failed = 0
    sha = None
    while True:
        ops = wl.make_ops(registry, seed, len(walls)) if walls else ops0
        t0 = time.perf_counter()
        lat, lat_scaled, outputs, nfail = run_pass(wl, Q, ops)
        spent.append(time.perf_counter() - t0)
        if not walls:
            sha = digest(wl, Q, outputs)
        walls.append(sum(lat_scaled))
        walls_raw.append(sum(lat))
        lats.extend(lat_scaled)
        lats_raw.extend(lat)
        failed += nfail
        # Stop before a pass as slow as the slowest so far would overrun.
        if time.perf_counter() - start + max(spent) > seconds:
            break
    lats.sort()
    lats_raw.sort()
    n = len(lats)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(lats) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("workload %s seed %d: %d passes of %d ops, %d failed" % (
        wl.name, seed, len(walls), len(ops0), failed))
    print("times at reference speed, raw wall times in brackets")
    print("wall_s %.4f s [%.4f s] (median of %d passes: %s)" % (
        metrics["wall_s"], statistics.median(walls_raw), len(walls),
        " ".join("%.3f" % w for w in walls)))
    print("op_p50_ms %.3f ms [%.3f ms] (n=%d ops)" % (
        metrics["op_p50_ms"], statistics.median(lats_raw) * 1e3, n))
    p90 = percentile(lats, 90)
    beyond = sum(1 for x in lats if x > p90)
    if beyond >= 10:
        print("op_p90_ms %.3f ms [%.3f ms] (n=%d ops, %d beyond)"
              % (p90 * 1e3, percentile(lats_raw, 90) * 1e3, n, beyond))
    else:
        print("op_p90_ms not reported: %d of %d ops lie beyond p90, fewer than 10"
              % (beyond, n))
    print("op_fail_frac %.6f (%d of %d ops)" % (failed / n, failed, n))
    print("setup_s %.4f s [%.4f s] (median of %d set-ups)" % (setup_s, setup_raw, SETUP_REPEATS))
    print("peak_rss_mb %.1f MB" % metrics["peak_rss_mb"])
    print("output_sha256 %s (pass 0)" % sha)
    units = dict(END_TO_END)
    correct = failed == 0 and sha is not None
    return correct, n, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def verify_extras(wl, Q, ops, outputs):
    """Mean guard G = 2*max_neg_shift + 8 and mean effective precision - order."""
    if not isinstance(wl, VerifyWorkload):
        return {"verifier.guard_mean": 0.0, "verifier.prec_surplus_mean": 0.0}
    guards = [2 * Q.verifier.max_neg_shift(ident) + 8 for ident, _ in ops]
    surplus = [t.effective_precision - r.order for r in outputs for t in r.trials]
    return {"verifier.guard_mean": statistics.mean(guards),
            "verifier.prec_surplus_mean": statistics.mean(surplus)}


def traced_run(wl, seed, seconds, Q, ops, spans_path):
    """Run each of pass 0's ops untraced and then traced, pass after pass.

    Pairing the two runs of an op in time keeps machine drift out of
    trace_overhead_frac.
    """
    tracer = Tracer()
    problems = []
    unrestored = 0

    tracer.install()
    try:
        Q.load_registry()
    finally:
        unrestored += tracer.restore()
    load = tracer.aggregate()

    start = time.perf_counter()
    plain, traced, layers = [], [], []
    props = None
    failed = 0
    sha = None
    spent = []
    while True:
        t0 = time.perf_counter()
        tracer.reset()
        pair = ([], [], [], [])  # untraced and traced latencies and outputs
        for op in ops:
            lat, out, ok = run_op(wl, Q, op)
            pair[0].append(lat)
            pair[2].append(out)
            failed += not ok
            tracer.install()
            try:
                lat, out, ok = run_op(wl, Q, op)
            finally:
                unrestored += tracer.restore()
            pair[1].append(lat)
            pair[3].append(out)
            failed += not ok
        plain.append(pair[0])
        traced.append(pair[1])
        got, got_traced = digest(wl, Q, pair[2]), digest(wl, Q, pair[3])
        sha = sha or got
        if not got == got_traced == sha:
            problems.append("digests differ: untraced %s, traced %s, first %s"
                            % (got, got_traced, sha))
        agg = tracer.aggregate()
        layers.append(agg)
        these = tracer.properties(agg)
        if props is None:
            props = these
            props.update(verify_extras(wl, Q, ops, pair[3]))
        elif any(props[k] != v for k, v in these.items()):
            problems.append("call counts or shares differ between traced passes")
        spans = tracer.span_count()
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(spent) > seconds:
            break
    if unrestored:
        problems.append("%d wrapped functions were left in place" % unrestored)
    if spans_path:
        tracer.write_spans(spans_path)

    def med(name, field):
        return statistics.median(agg[name][field] for agg in layers)

    values = dict(props)
    for name in COUNTED:
        values[name + ".self_s"] = med(name, 2)
    build = med("eliminator.build_system", 1)
    solve = med("eliminator.gauss_solve", 1)
    values["eliminator.build_system.total_s"] = build
    values["eliminator.gauss_solve.total_s"] = solve
    values["eliminator.check_s"] = max(0.0, med("eliminator.express_pm", 1) - build - solve)
    values["identities.load_registry.total_s"] = load["identities.load_registry"][1]
    values["dsl.parse.calls"] = load["dsl.parse"][0]
    values["trace_overhead_frac"] = sum(best_per_op(traced)) / sum(best_per_op(plain)) - 1

    print("workload %s seed %d (traced): %d ops x %d passes, each op untraced then traced, "
          "%d spans per traced pass" % (wl.name, seed, len(ops), len(plain), spans))
    print("untraced pass times %s" % " ".join("%.3f" % sum(p) for p in plain))
    print("traced   pass times %s" % " ".join("%.3f" % sum(p) for p in traced))
    print("output_sha256 %s (pass 0)" % sha)
    for p in problems:
        print("bench: " + p, file=sys.stderr)
    units = per_layer_units()
    attempted = 2 * len(ops) * len(plain)
    correct = failed == 0 and sha is not None and not problems
    return correct, attempted, failed, {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here")
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    if not os.path.isfile(os.path.join(SRC, "qtheta", "__init__.py")):
        fail("no qtheta sources under %s; run from a qtheta source checkout" % SRC)
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]

    print("python %s on %s, %d cpus" % (platform.python_version(), platform.platform(),
                                        os.cpu_count()))
    Q, registry, ops, setup_s, setup_raw = setup(wl, args.seed)
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds, Q, ops, args.spans)
    else:
        result = untraced_run(wl, args.seed, args.seconds, Q, registry, ops, setup_s, setup_raw)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
