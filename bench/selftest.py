"""Self-tests of the benchmark.

    python3 bench/selftest.py [workload ...]

Checks, for each named workload (default: all of them), that two traced
runs at one seed give identical call counts, path shares and other
input-determined layer metrics, and that the traced run's output_sha256
equals the untraced run's.  It also checks in-process that the tracer
wraps each listed function in every namespace that bound it and restores
every original afterwards.  Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SEED = 7

# Layer metrics that depend only on the inputs; everything else is a time.
EXACT_SUFFIXES = (".calls", "_share", ".short_len_p50", ".short_len_p90",
                  "coef_bits_peak", ".guard_mean", ".prec_surplus_mean")


def check(cond, msg):
    if not cond:
        print("FAIL " + msg)
        sys.exit(1)
    print("ok   " + msg)


def check_restore():
    sys.path.insert(0, SRC)
    import qtheta  # noqa: F401  (loads every submodule the tracer wraps)
    from tracer import TARGETS, Tracer, qtheta_modules

    def snapshot():
        return {(m.__name__, k): v for m in qtheta_modules() for k, v in vars(m).items()}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    during = snapshot()
    wrapped = {key for key in before if during[key] is not before[key]}
    bad = tracer.restore()
    after = snapshot()
    for mod, fns in TARGETS.items():
        for fn in fns:
            check(("qtheta." + mod, fn) in wrapped, "%s.%s is wrapped in its module" % (mod, fn))
    for key in (("qtheta.dsl", "theta_partial"), ("qtheta.sums", "qpoch_finite"),
                ("qtheta.eliminator", "lam"), ("qtheta", "express_pm"),
                ("qtheta.verifier", "load_registry")):
        check(key in wrapped, "%s.%s (an imported binding) is wrapped" % key)
    check(bad == 0 and all(after[k] is before[k] for k in before) and after.keys() == before.keys(),
          "every wrapped function is restored (%d bindings)" % len(wrapped))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    check(proc.returncode == 0, "%s --trace %d exits 0 (stderr: %s)"
          % (workload, trace, proc.stderr.strip()[-300:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    sha = [ln.split()[1] for ln in lines if ln.startswith("output_sha256 ")][0]
    check(result["correct"] and result["failed"] == 0,
          "%s --trace %d is correct with no failed op" % (workload, trace))
    return result["metrics"], sha, lines


def main():
    from workloads import WORKLOADS
    names = sys.argv[1:] or list(WORKLOADS)
    check_restore()
    for name in names:
        _, sha_plain, _ = run(name, 0)
        with tempfile.TemporaryDirectory() as tmp:
            spans_path = os.path.join(tmp, "spans.tsv")
            first, sha_first, lines = run(name, 1, "--spans", spans_path)
            with open(spans_path, encoding="utf-8") as fh:
                written = sum(1 for _ in fh) - 1
        spans = int([ln for ln in lines if ln.startswith("workload ")][0].split()[-5])
        check(written == spans, "%s: --spans wrote all %d spans of the traced pass" % (name, spans))
        second, sha_second, _ = run(name, 1)
        exact = sorted(k for k in first if k.endswith(EXACT_SUFFIXES))
        diff = [k for k in exact if first[k]["value"] != second[k]["value"]]
        check(not diff, "%s: %d input-determined layer metrics repeat across traced runs %s"
              % (name, len(exact), diff or ""))
        check(first["series._make.calls"]["value"] > 0, "%s: the trace saw calls" % name)
        check(sha_first == sha_second == sha_plain,
              "%s: traced and untraced output_sha256 agree (%s)" % (name, sha_plain[:16]))


if __name__ == "__main__":
    main()
