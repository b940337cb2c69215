"""Express P_m(a,b) as a linear combination of partial theta values.

Instantiating theta(q, a) = sum_k lam(m,k,b) P_m(a q^k, b q^k) at the
shifted parameter pairs (a/q^j, b/q^j) for j = 0..m-2, together with the
a<->b swapped family, yields a square linear system over the series field
in the unknowns P_m(a q^t, b q^t), t = -(m-2)..m-1.  Gauss-Jordan on
[A | I] with minimal-q-order pivoting solves it for the unknowns asked for;
express_pm asks only for t = 0, whose pivot row is the wanted combination
and the only pivot row back-eliminated.  A residual check against the
direct P_m evaluation is run before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import DomainError, EliminationError, PrecisionError
from . import series as se
from .kernels import _val_shift, as_value, theta_partial
from .sums import lam, pmsum

__all__ = ["SeriesLinearSystem", "ThetaCombination", "build_system", "gauss_solve", "express_pm"]

GUARD_PER_M = 2  # working precision = target + 2m + 8


@dataclass
class SeriesLinearSystem:
    """A square system over truncated series.

    Row r reads: sum_c matrix[r][c] * X_{shifts[c]} = theta(q, v/q^j) for
    rhs_labels[r] = (v, j), v being 'a' or 'b', where X_t stands for
    P_m(a q^t, b q^t).  The theta values are left to ThetaCombination.
    """

    m: int
    a: object
    b: object
    prec: int
    shifts: list
    matrix: list
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
        terms = (se.mul(c, theta_partial(_val_shift(v, -k), prec))
                 for v, cs in ((av, self.coeff_a), (bv, self.coeff_b)) for k, c in enumerate(cs))
        return se.add_all(chain([se.zero(prec)], terms))


def build_system(m, a, b, prec):
    """Assemble the 2(m-1) x 2(m-1) system at working precision ``prec``."""
    if m < 2:
        raise DomainError("build_system needs m >= 2")
    av, bv = as_value(a), as_value(b)
    shifts = list(range(-(m - 2), m))
    col = {t: i for i, t in enumerate(shifts)}
    matrix = []
    rhs_labels = []
    for j in range(m - 1):
        for kind, pval in (("a", bv), ("b", av)):
            row = [se.zero(prec)] * (2 * (m - 1))
            for k in range(m):
                row[col[k - j]] = lam(m, k, _val_shift(pval, -j), prec)
            matrix.append(row)
            rhs_labels.append((kind, j))
    return SeriesLinearSystem(m, av, bv, prec, shifts, matrix, rhs_labels)


def gauss_solve(system, pivot="min_order", want=None):
    """Solve for the unknowns X_t, t in ``want`` (default: every shift), in
    ``want`` order.

    Gauss-Jordan on one augmented row per equation, [A | I]: once every
    column is eliminated, the right half of each unknown's pivot row holds
    its combination of the right-hand sides.  Each pivot is inverted once
    and its row scaled by multiplication; for d = ord(piv), mul(x, 1/piv)
    has exactly divide's precision min(x.prec - d, piv.prec - 2d + ord x),
    so the result equals divide's, zero x included.

    Every column is pivoted, so a singular system fails at the same column
    whatever is wanted, but only the pivot rows of wanted unknowns are
    back-eliminated.  A pivot row is read only at its own column's step, so
    leaving an unwanted one stale changes nothing else: every returned
    entry goes through the same ring operations on the same operands as in
    the full solve and is equal to it, precision included.  Likewise the
    step for column c scales and updates only the columns after c and the
    right half: entries in columns <= c are never read again.

    Pivoting picks the eligible entry of minimal q-order ("min_order",
    the default: a pivot of order d costs 2d precision digits) or the
    first nonzero row ("first"); the solution is unique over the series
    field, so both must agree, which the tests exercise.
    """
    if pivot not in ("min_order", "first"):
        raise DomainError("gauss_solve pivot must be 'min_order' or 'first', got %r" % (pivot,))
    want = list(system.shifts) if want is None else list(want)
    for i, t in enumerate(want):
        if t not in system.shifts:
            raise DomainError("gauss_solve: no unknown t=%r among shifts %r" % (t, system.shifts))
        if t in want[:i]:
            raise DomainError("gauss_solve: unknown t=%r wanted twice" % (t,))
    cols = [system.shifts.index(t) for t in want]
    n = len(system.shifts)
    p = system.prec
    rows = [list(row) + [se.one(p) if i == j else se.zero(p) for j in range(n)]
            for i, row in enumerate(system.matrix)]
    free = list(range(n))
    live = list(range(n))  # rows still updated: free ones and wanted pivot rows
    where = []
    for c in range(n):
        cand = [r for r in free if not rows[r][c].is_zero]
        if not cand:
            raise EliminationError(
                "singular to precision in column for unknown t=%d" % system.shifts[c]
            )
        best = cand[0] if pivot == "first" else min(cand, key=lambda r: (rows[r][c].order(), r))
        free.remove(best)
        where.append(best)
        # Columns <= c are never read again, so only the later columns and
        # the right half are scaled and updated.
        piv = rows[best]
        ip = se.invert(piv[c])
        piv[c + 1:] = [se.mul(x, ip) for x in piv[c + 1:]]
        for r in live:
            f = rows[r][c]
            if r != best and not f.is_zero:
                rows[r][c + 1:] = [se.sub(x, se.mul(f, y))
                                   for x, y in zip(rows[r][c + 1:], piv[c + 1:])]
        if c not in cols:
            live.remove(best)
    combos = []
    for c in cols:
        ca = [None] * (system.m - 1)
        cb = [None] * (system.m - 1)
        for coeff, (kind, j) in zip(rows[where[c]][n:], system.rhs_labels):
            if kind == "a":
                ca[j] = coeff
            else:
                cb[j] = coeff
        combos.append(ThetaCombination(system.m, ca, cb))
    return combos


def express_pm(m, a, b, prec):
    """The theta combination equal to P_m(a,b), residual-checked internally."""
    if prec < 1:
        raise PrecisionError("express_pm needs precision >= 1")
    wp = prec + GUARD_PER_M * m + 8
    system = build_system(m, a, b, wp)
    [combo] = gauss_solve(system, want=[0])
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
