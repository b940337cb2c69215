"""Randomized verification of identity records to a requested order.

Each trial samples exact rational parameters (deterministically from the
seed and trial index), evaluates both sides at working precision
N + G where G = 2*maxNegShift + 8 is derived from the expression trees,
and checks that the residual is exactly zero coefficientwise with
effective precision at least N.  Exact arithmetic means there is no
tolerance anywhere: one nonzero coefficient fails the trial.

Passing is strong evidence, not proof: an identity wrong by a nonzero
rational function would have to vanish at every sampled point.
"""

from __future__ import annotations

import fnmatch
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, EvalError, QThetaError, SamplingError
from . import dsl
from . import series as se
from .dsl import Ref
from .identities import load_registry
from .kernels import QMonomial

__all__ = [
    "TrialResult",
    "VerificationReport",
    "sample_params",
    "full_binding",
    "max_neg_shift",
    "verify_identity",
    "verify_all",
    "report_to_dict",
    "reports_to_json",
]

SAMPLE_PREC = 24
MAX_ATTEMPTS = 1000


# -- parameter sampling --------------------------------------------------------


def _constraint_ok(constraint, binding):
    if constraint.kind == "distinct":
        p1, p2 = constraint.expr
        v1, v2 = binding[p1], binding[p2]
        if isinstance(v1, Fraction) and isinstance(v2, Fraction):
            return v1 != v2
        s1 = dsl.evaluate(Ref(p1), binding, SAMPLE_PREC)
        s2 = dsl.evaluate(Ref(p2), binding, SAMPLE_PREC)
        return not se.eq_to_prec(s1, s2)[0]
    value = dsl.evaluate(constraint.expr, binding, SAMPLE_PREC)
    if constraint.kind in ("nonzero", "invertible"):
        return not value.is_zero
    if constraint.kind == "notone":
        return not se.sub(value, se.one(value.prec)).is_zero
    raise QThetaError("unknown constraint kind %r" % constraint.kind)


def sample_params(ident, seed, trial):
    """Deterministic admissible rational binding for (seed, trial)."""
    rng = random.Random("%s:%s:%s" % (seed, trial, ident.name))
    excluded = (Fraction(0), Fraction(1), Fraction(-1))
    for _ in range(MAX_ATTEMPTS):
        base = {}
        for p in ident.params:
            base[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        vals = list(base.values())
        if any(v in excluded for v in vals):
            continue
        if any(vals[i] in (vals[j], -vals[j])
               for i in range(len(vals)) for j in range(i + 1, len(vals))):
            continue
        try:
            binding = full_binding(ident, base, SAMPLE_PREC)
            if all(_constraint_ok(c, binding) for c in ident.constraints):
                return base
        except QThetaError:
            continue
    raise SamplingError(
        "no admissible binding for %r within %d attempts" % (ident.name, MAX_ATTEMPTS))


def full_binding(ident, base, prec):
    """Base rationals plus derived bindings evaluated at ``prec``."""
    binding = dict(base)
    for name, ast in ident.derives:
        value = dsl.evaluate_value(ast, binding, prec)
        if isinstance(value, QMonomial) and value.exp == 0:
            value = value.coef
        binding[name] = value
    return binding


# -- static guard estimate -----------------------------------------------------


def max_neg_shift(ident):
    """Most negative q-power injected by the identity's expressions."""
    return dsl.neg_shift(ident.lhs, ident.rhs, *(ast for _, ast in ident.derives))


# -- verification ----------------------------------------------------------------


@dataclass
class TrialResult:
    binding: dict
    effective_precision: int
    status: str  # "zero" | "nonzero" | "error"
    first_bad: tuple = None  # (exponent, Fraction) when status == "nonzero"
    error: str = None
    ok: bool = False


@dataclass
class VerificationReport:
    identity: str
    source: str
    order: int
    trials: list
    passed: bool
    millis: int = field(default=0)


def verify_identity(ident, order, trials, seed):
    """Run ``trials`` randomized trials of one identity at order ``order``."""
    if order < 5:
        raise DomainError("verification order must be >= 5")
    if trials < 1:
        raise DomainError("at least one trial is required")
    guard = 2 * max_neg_shift(ident) + 8
    wp = order + guard
    t0 = time.perf_counter()
    results = []
    for trial in range(trials):
        base = {}
        try:
            base = sample_params(ident, seed, trial)
            binding = full_binding(ident, base, wp)
            lhs = dsl.evaluate(ident.lhs, binding, wp)
            rhs = dsl.evaluate(ident.rhs, binding, wp)
            resid = se.sub(lhs, rhs)
            if resid.is_zero:
                results.append(TrialResult(base, resid.prec, "zero",
                                           ok=resid.prec >= order))
            else:
                e = resid.order()
                results.append(TrialResult(base, resid.prec, "nonzero",
                                           first_bad=(e, resid.coeff(e))))
        except EvalError as exc:
            where = "" if exc.pos is None else ident.locate(exc.pos) + ": "
            results.append(TrialResult(base, 0, "error", error=where + exc.message))
        except QThetaError as exc:
            results.append(TrialResult(base, 0, "error", error=str(exc)))
    millis = int((time.perf_counter() - t0) * 1000)
    passed = all(r.ok for r in results)
    return VerificationReport(ident.name, ident.source, order, results, passed, millis)


def verify_all(order=30, trials=3, seed=0, name_filter=None, files=()):
    """Verify the (filtered) corpus; returns (reports, summary dict)."""
    idents = load_registry(files)
    if name_filter:
        idents = [i for i in idents if fnmatch.fnmatchcase(i.name, name_filter)]
    reports = [verify_identity(i, order, trials, seed) for i in idents]
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
    }
    return reports, summary


# -- JSON reports ----------------------------------------------------------------


def report_to_dict(report, with_timing=True):
    trials = []
    for t in report.trials:
        entry = {
            "binding": {k: str(v) for k, v in sorted(t.binding.items())},
            "effective_precision": t.effective_precision,
            "status": t.status,
        }
        if t.first_bad is not None:
            entry["first_bad"] = {"exp": t.first_bad[0], "coeff": str(t.first_bad[1])}
        if t.error is not None:
            entry["error"] = t.error
        trials.append(entry)
    out = {
        "identity": report.identity,
        "source": report.source,
        "order": report.order,
        "trials": trials,
        "pass": report.passed,
    }
    if with_timing:
        out["millis"] = report.millis
    return out


def reports_to_json(reports, with_timing=True):
    """Serialize reports; with_timing=False gives byte-stable output."""
    return json.dumps([report_to_dict(r, with_timing) for r in reports], indent=2) + "\n"
