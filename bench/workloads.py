"""The benchmark's workloads: how each one draws its operations from the
seed, runs one operation through the public API, and checks its result.

An operation ("op") is one public call, timed on its own.  A pass is the
list of ops the workload defines for one draw of its inputs.  Passes 0, 1,
2, ... of a seed are independent draws, so a run that repeats passes
averages over more inputs, and the same seed and pass index always give
the same ops.
"""

import hashlib
import random
from fractions import Fraction


def _rng(name, seed, index):
    # A str seed is hashed with SHA-512, so draws repeat across processes.
    return random.Random("%s:%d:%d" % (name, seed, index))


class VerifyWorkload:
    """``verify_identity(ident, order, 1, s)`` over a slice of the corpus."""

    def __init__(self, name, order, seeds, prefix):
        self.name = name
        self.order = order
        self.seeds = seeds
        self.prefix = prefix

    def make_ops(self, registry, seed, index):
        rng = _rng(self.name, seed, index)
        seeds = [rng.randrange(2 ** 31) for _ in range(self.seeds)]
        idents = [i for i in registry if i.name.startswith(self.prefix)]
        return [(ident, s) for s in seeds for ident in idents]

    def run_op(self, Q, op):
        ident, s = op
        report = Q.verify_identity(ident, self.order, 1, s)
        return report.passed, report

    def digest(self, Q, outputs):
        text = Q.reports_to_json(outputs, with_timing=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The verifier's sampling heights, minus the points where an op cannot
# succeed: a, b in {0, 1, -1}, a = +-b, and ab = 1 (the factor
# 1 - ab/q^m * q^m of P_m's (ab/q^m; q)_n vanishes).
_EXCLUDED = (Fraction(0), Fraction(1), Fraction(-1))


class EliminateWorkload:
    """``express_pm(m, a, b, order)`` for m = 2..6 at a few (a, b) pairs."""

    def __init__(self, name, order, ms, pairs):
        self.name = name
        self.order = order
        self.ms = ms
        self.pairs = pairs

    def make_ops(self, registry, seed, index):
        rng = _rng(self.name, seed, index)
        pairs = []
        while len(pairs) < self.pairs:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a in _EXCLUDED or b in _EXCLUDED or a in (b, -b) or a * b == 1:
                continue
            pairs.append((a, b))
        return [(m, a, b) for a, b in pairs for m in self.ms]

    def run_op(self, Q, op):
        m, a, b = op
        combo = Q.express_pm(m, a, b, self.order)
        ok = combo.checked_prec >= self.order
        if m == 2:
            # The paper's closed form: P_2 = a/(a-b) theta(a) - b/(a-b) theta(b).
            ok = ok and (combo.coeff_a[0].constant_value() == a / (a - b)
                         and combo.coeff_b[0].constant_value() == -b / (a - b))
        return ok, (op, combo)

    def digest(self, Q, outputs):
        h = hashlib.sha256()
        for (m, a, b), combo in outputs:
            h.update(("%d %s %s %d\n" % (m, a, b, combo.checked_prec)).encode("utf-8"))
            for c in combo.coeff_a + combo.coeff_b:
                h.update((str(c) + "\n").encode("utf-8"))
        return h.hexdigest()


# Why each workload exists, and the layers it stresses, is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        VerifyWorkload("corpus", 30, 3, ""),
        VerifyWorkload("deep", 100, 1, "cor2.2-"),
        EliminateWorkload("eliminate", 40, tuple(range(2, 7)), 2),
    )
}
