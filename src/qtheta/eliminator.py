"""Express P_m(a,b) as a linear combination of partial theta values.

Instantiating theta(q, a) = sum_k lam(m,k,b) P_m(a q^k, b q^k) at the
shifted parameter pairs (a/q^j, b/q^j) for j = 0..m-2, together with the
a<->b swapped family, yields a square linear system over the series field
in the unknowns P_m(a q^t, b q^t), t = -(m-2)..m-1.  Gaussian elimination
with minimal-q-order pivoting solves it; the t = 0 row is the wanted
combination, and a residual check against the direct P_m evaluation is
run before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, EliminationError
from . import series as se
from .kernels import _val_shift, as_value, theta_partial
from .sums import lam, pmsum

__all__ = ["SeriesLinearSystem", "ThetaCombination", "build_system", "gauss_solve", "express_pm"]

GUARD_PER_M = 2  # working precision = target + 2m + 8


@dataclass
class SeriesLinearSystem:
    """A square system over truncated series.

    Row r reads: sum_c matrix[r][c] * X_{shifts[c]} = rhs_values[r], where
    X_t stands for P_m(a q^t, b q^t) and rhs_labels[r] is ('a'|'b', j) for
    the value theta(q, a/q^j) resp. theta(q, b/q^j).
    """

    m: int
    a: object
    b: object
    prec: int
    shifts: list
    matrix: list
    rhs_values: list
    rhs_labels: list


@dataclass
class ThetaCombination:
    """sum_k coeff_a[k]*theta(q, a/q^k) + coeff_b[k]*theta(q, b/q^k)."""

    m: int
    coeff_a: list
    coeff_b: list
    checked_prec: int = field(default=0)

    def evaluate(self, a, b, prec):
        av, bv = as_value(a), as_value(b)
        acc = se.zero(prec)
        for k, c in enumerate(self.coeff_a):
            acc = se.add(acc, se.mul(c, theta_partial(_val_shift(av, -k), prec)))
        for k, c in enumerate(self.coeff_b):
            acc = se.add(acc, se.mul(c, theta_partial(_val_shift(bv, -k), prec)))
        return acc


def build_system(m, a, b, prec):
    """Assemble the 2(m-1) x 2(m-1) system at working precision ``prec``."""
    if m < 2:
        raise DomainError("build_system needs m >= 2")
    av, bv = as_value(a), as_value(b)
    shifts = list(range(-(m - 2), m))
    col = {t: i for i, t in enumerate(shifts)}
    matrix = []
    rhs_values = []
    rhs_labels = []
    for j in range(m - 1):
        for kind, pval, tval in (("a", bv, av), ("b", av, bv)):
            row = [se.zero(prec)] * (2 * (m - 1))
            for k in range(m):
                row[col[k - j]] = lam(m, k, _val_shift(pval, -j), prec)
            matrix.append(row)
            rhs_values.append(theta_partial(_val_shift(tval, -j), prec))
            rhs_labels.append((kind, j))
    return SeriesLinearSystem(m, av, bv, prec, shifts, matrix, rhs_values, rhs_labels)


def gauss_solve(system, pivot="min_order"):
    """Solve for every unknown, returned in ``system.shifts`` order.

    Pivoting picks the eligible entry of minimal q-order ("min_order",
    the default: a pivot of order d costs 2d precision digits) or the
    first nonzero row ("first"); the solution is unique over the series
    field, so both must agree, which the tests exercise.
    """
    n = len(system.shifts)
    a = [list(row) for row in system.matrix]
    inv = [[se.one(system.prec) if i == j else se.zero(system.prec) for j in range(n)]
           for i in range(n)]
    where = [None] * n
    used = set()
    for c in range(n):
        best = None
        for r in range(n):
            if r in used or a[r][c].is_zero:
                continue
            if pivot == "first":
                best = r
                break
            key = (a[r][c].order(), r)
            if best is None or key < (a[best][c].order(), best):
                best = r
        if best is None:
            raise EliminationError(
                "singular to precision in column for unknown t=%d" % system.shifts[c]
            )
        used.add(best)
        where[c] = best
        piv = a[best][c]
        a[best] = [se.divide(x, piv) for x in a[best]]
        inv[best] = [se.divide(x, piv) for x in inv[best]]
        for r in range(n):
            if r == best or a[r][c].is_zero:
                continue
            f = a[r][c]
            a[r] = [se.sub(x, se.mul(f, y)) for x, y in zip(a[r], a[best])]
            inv[r] = [se.sub(x, se.mul(f, y)) for x, y in zip(inv[r], inv[best])]
    combos = []
    for c in range(n):
        row = inv[where[c]]
        ca = [None] * (system.m - 1)
        cb = [None] * (system.m - 1)
        for coeff, (kind, j) in zip(row, system.rhs_labels):
            if kind == "a":
                ca[j] = coeff
            else:
                cb[j] = coeff
        combos.append(ThetaCombination(system.m, ca, cb))
    return combos


def express_pm(m, a, b, prec):
    """The theta combination equal to P_m(a,b), residual-checked internally."""
    wp = prec + GUARD_PER_M * m + 8
    system = build_system(m, a, b, wp)
    combos = gauss_solve(system)
    combo = combos[system.shifts.index(0)]
    value = combo.evaluate(a, b, wp)
    resid = se.sub(value, pmsum(m, a, b, wp))
    if not resid.is_zero:
        raise EliminationError(
            "postcondition failed: residual has q^%d coefficient %s"
            % (resid.order(), resid.coeff(resid.order()))
        )
    if resid.prec < prec:
        raise EliminationError(
            "postcondition failed: residual certified only to O(q^%d) < O(q^%d)"
            % (resid.prec, prec)
        )
    combo.checked_prec = resid.prec
    return combo
