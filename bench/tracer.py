"""Outside-in tracing of qtheta's module-level functions.

The tracer replaces each listed function by a wrapper in every qtheta
module namespace that bound it (``dsl`` imports kernel names directly,
``kernels`` calls ``se._make``, the package re-exports most names), so
calls between layers pass through the wrappers as well as calls from the
benchmark.  One span stack gives each span its parent; a span's self
time is its duration minus the durations of its child spans.  Spans are
kept in memory in flat arrays and aggregated once the traced pass ends.

The wrappers also read, without changing anything, the properties that
decide which code path an operation takes: the stored block lengths of
``series.mul`` operands, the divisor shape and leading numerator in
``series.divide``, and the coefficient bit sizes of kernel and sum
results.
"""

import sys
import time
from array import array

TARGETS = {
    "series": ("mul", "divide", "add", "_make", "invert", "pow_int", "scale"),
    "kernels": ("qpoch_finite", "qpoch_capped", "qpoch_infinite", "qpoch_multi",
                "theta_partial", "theta_full", "bhs", "one_minus"),
    "sums": ("usum", "vsum", "lam", "pmsum", "ssum", "omega", "thetak", "tsum"),
    "dsl": ("evaluate", "evaluate_value", "parse"),
    "eliminator": ("build_system", "gauss_solve", "express_pm"),
    "identities": ("load_registry",),
}

# Functions reported as <name>.calls and <name>.self_s; the eliminator
# and load_registry spans are reported as totals, dsl.parse as calls.
COUNTED = tuple("%s.%s" % (mod, fn) for mod in ("series", "kernels", "sums")
                for fn in TARGETS[mod]) + ("dsl.evaluate", "dsl.evaluate_value")

# Layers and functions whose results feed coef_bits_peak.  The products
# and quotients of series.mul and series.divide carry the largest
# coefficients; peaks inside a call need counters in the program.
_RESULT_BITS = ("kernels", "sums", "series.mul", "series.divide")


def qtheta_modules():
    """The loaded qtheta package and submodules, in a stable order."""
    return [sys.modules[n] for n in sorted(sys.modules)
            if n == "qtheta" or n.startswith("qtheta.")]


def percentile(sorted_vals, p):
    """Nearest-rank percentile of a sorted, nonempty list."""
    k = max(0, min(len(sorted_vals) - 1, -(-len(sorted_vals) * p // 100) - 1))
    return sorted_vals[k]


def _is_binomial(num):
    # A stored block has no leading or trailing zeros, so at most two
    # nonzero terms means length <= 2 or an all-zero interior.
    return len(num) <= 2 or not any(num[1:-1])


class Tracer:
    """Wrappers for the TARGETS of the loaded qtheta modules.

    Build it after importing qtheta.  ``install`` and ``restore`` only swap
    module attributes, so they are cheap enough to run around every op.
    """

    def __init__(self):
        self.names = ["%s.%s" % (mod, fn) for mod, fns in TARGETS.items() for fn in fns]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.reset()
        modules = qtheta_modules()
        by_name = {m.__name__: m for m in modules}
        self._bindings = []  # (module, attribute, original, wrapper)
        for fid, name in enumerate(self.names):
            mod, fn = name.split(".")
            orig = getattr(by_name["qtheta." + mod], fn)
            pre = {"series.mul": self._see_mul, "series.divide": self._see_divide}.get(name)
            post = self._see_result if mod in _RESULT_BITS or name in _RESULT_BITS else None
            wrapper = self._wrap(fid, orig, pre, post)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is orig:
                        self._bindings.append((m, attr, orig, wrapper))

    def reset(self):
        """Forget the recorded spans and properties."""
        for a in (self.fid, self.parent, self.start, self.end):
            del a[:]
        self.mul_short = array("i")
        self.mul_binomial = 0
        self.div_calls = 0
        self.div_binomial = 0
        self.div_fraction = 0
        self.bits_peak = 0

    # -- installing and restoring the wrappers ------------------------------

    def install(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def restore(self):
        """Put every original back; returns the number left unrestored."""
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)
        return sum(1 for m, attr, orig, _ in self._bindings if getattr(m, attr) is not orig)

    def _wrap(self, fid, fn, pre, post):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- path-deciding properties, read outside the spans --------------------

    def _see_mul(self, args):
        a, b = args[0]._num, args[1]._num
        if a and b:
            self.mul_short.append(min(len(a), len(b)))
            if _is_binomial(a) or _is_binomial(b):
                self.mul_binomial += 1

    def _see_divide(self, args):
        # Mirrors series.divide's early exits: only a divide that reaches the
        # coefficient recurrence chooses between the integer and Fraction paths.
        x, y = args
        self.div_calls += 1
        if not y._num or not x._num:
            return
        dy = y.min_exp
        prec = min(x.prec - dy, y.prec + x.min_exp - 2 * dy)
        if prec - (x.min_exp - dy) <= 0:
            return
        if _is_binomial(y._num):
            self.div_binomial += 1
        if abs(y._num[0]) >> 32:
            self.div_fraction += 1

    def _see_result(self, res):
        num = getattr(res, "_num", None)
        if num:
            bits = max(max(map(int.bit_length, num)), res._den.bit_length())
            if bits > self.bits_peak:
                self.bits_peak = bits

    # -- aggregation ------------------------------------------------------------

    def span_count(self):
        return len(self.fid)

    def properties(self, agg):
        """Call counts, path shares and coef_bits_peak of the traced pass.

        These depend only on the inputs, so they repeat exactly.
        """
        out = {name + ".calls": agg[name][0] for name in COUNTED}
        short = sorted(self.mul_short)
        n_mul = len(short)
        n_div = self.div_calls
        out["series.mul.short_len_p50"] = percentile(short, 50) if short else 0
        out["series.mul.short_len_p90"] = percentile(short, 90) if short else 0
        out["series.mul.binomial_share"] = self.mul_binomial / n_mul if n_mul else 0.0
        out["series.divide.binomial_share"] = self.div_binomial / n_div if n_div else 0.0
        out["series.divide.fraction_path_share"] = self.div_fraction / n_div if n_div else 0.0
        out["coef_bits_peak"] = self.bits_peak
        return out

    def aggregate(self):
        """Per function name: (calls, total_s, self_s) over the recorded spans."""
        n = len(self.fid)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, f in enumerate(self.fid):
            calls[f] += 1
            total[f] += dur[i]
            own[f] += dur[i] - child[i]
        return {name: (calls[f], total[f], own[f]) for f, name in enumerate(self.names)}

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines, one per span in
        start order; ``parent`` is the row number (from 0) of the enclosing
        span, or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for f, p, s, e in zip(self.fid, self.parent, self.start, self.end):
                fh.write("%s\t%d\t%.9f\t%.9f\n" % (self.names[f], p, s - t0, e - t0))
