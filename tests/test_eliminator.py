"""Eliminator: system assembly, Gaussian elimination, theta combinations."""

import hashlib
import random
from fractions import Fraction

import pytest

from qtheta import eliminator, series as se
from qtheta.errors import DegenerateParameterError, DomainError, EliminationError, PrecisionError
from qtheta.eliminator import (
    SeriesLinearSystem,
    ThetaCombination,
    build_system,
    express_pm,
    gauss_solve,
)
from qtheta.sums import pmsum

from helpers import assert_eq_series, qmon, rand_fraction


def test_build_system_m2_shape():
    a, b = Fraction(2), Fraction(3)
    sys2 = build_system(2, a, b, 20)
    assert sys2.shifts == [0, 1]
    assert len(sys2.matrix) == 2 and len(sys2.matrix[0]) == 2
    # rows: X_0 + b X_1 = theta(a) and X_0 + a X_1 = theta(b)
    assert sys2.matrix[0][0].constant_value() == 1
    assert sys2.matrix[0][1].constant_value() == b
    assert sys2.matrix[1][0].constant_value() == 1
    assert sys2.matrix[1][1].constant_value() == a


def test_build_system_m3_shape():
    sys3 = build_system(3, Fraction(2), Fraction(3), 20)
    assert sys3.shifts == [-1, 0, 1, 2]
    assert len(sys3.matrix) == 4
    assert sys3.rhs_labels == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_singular_system_equal_parameters():
    sys2 = build_system(2, Fraction(2), Fraction(2), 16)
    with pytest.raises(EliminationError):
        gauss_solve(sys2)


def test_identity_matrix_system():
    prec = 12
    n = 4
    matrix = [[se.one(prec) if i == j else se.zero(prec) for j in range(n)]
              for i in range(n)]
    labels = [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
    system = SeriesLinearSystem(3, qmon(2), qmon(2), prec, [-1, 0, 1, 2],
                                matrix, labels)
    combos = gauss_solve(system)
    for i, combo in enumerate(combos):
        kind, j = labels[i]
        coeffs = combo.coeff_a if kind == "a" else combo.coeff_b
        others = combo.coeff_b if kind == "a" else combo.coeff_a
        assert coeffs[j].constant_value() == 1
        assert all(c.is_zero for k, c in enumerate(coeffs) if k != j)
        assert all(c.is_zero for c in others)


def test_express_pm_m2_exact_constants():
    combo = express_pm(2, Fraction(2), Fraction(3), 25)
    assert combo.coeff_a[0].constant_value() == Fraction(-2)
    assert combo.coeff_b[0].constant_value() == Fraction(3)
    assert combo.checked_prec >= 25


def test_express_pm_m2_random_constants():
    rng = random.Random(42)
    done = 0
    while done < 3:
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a == b or a * b == 1:
            continue
        combo = express_pm(2, a, b, 25)
        assert combo.coeff_a[0].constant_value() == a / (a - b)
        assert combo.coeff_b[0].constant_value() == -b / (a - b)
        done += 1


def test_express_pm_rendered_output_pinned():
    # every coefficient of m = 2..6 at (a, b) = (2, 3), order 20, as text
    h = hashlib.sha256()
    for m in range(2, 7):
        combo = express_pm(m, Fraction(2), Fraction(3), 20)
        h.update(b"%d %d\n" % (m, combo.checked_prec))
        for c in combo.coeff_a + combo.coeff_b:
            h.update((str(c) + "\n").encode())
    assert h.hexdigest() == "dd5ffd5e1b31dae3d149eb7d40761b19bf8de1d64c1b75387510ffbc0f0542a7"


def test_express_pm_m3_matches_four_theta_statement():
    # the m=3 combination's coefficients equal the four-theta statement's
    # rational functions, evaluated by series division
    rng = random.Random(9)
    done = 0
    while done < 3:
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a in (b, -b) or a * b == 1 or a + b == 0:
            continue
        p = 24
        combo = express_pm(3, a, b, 20)
        one_q = se.add(se.one(p), se.monomial(1, 1, p))
        mult = se.divide(
            se.from_rational(-a * b * (a + b), p),
            se.mul(se.sub(se.from_rational(a, p), se.monomial(b, 1, p)),
                   se.sub(se.from_rational(b, p), se.monomial(a, 1, p))),
        )
        mult = se.scale(se.mul(mult, one_q), Fraction(1, a - b))
        ca0 = se.mul(mult, se.divide(se.add(se.from_rational(b, p), se.monomial(1, 1, p)),
                                     se.scale(one_q, b / a)))
        cb0 = se.neg(se.mul(mult, se.divide(se.add(se.from_rational(a, p),
                                                   se.monomial(1, 1, p)),
                                            se.scale(one_q, a / b))))
        ca1 = se.mul(mult, se.scale(se.add(se.from_rational(b, p), se.monomial(1, 2, p)),
                                    Fraction(1, a + b)))
        cb1 = se.neg(se.mul(mult, se.scale(se.add(se.from_rational(a, p),
                                                  se.monomial(1, 2, p)),
                                           Fraction(1, a + b))))
        assert_eq_series(combo.coeff_a[0], ca0, 18)
        assert_eq_series(combo.coeff_b[0], cb0, 18)
        assert_eq_series(combo.coeff_a[1], ca1, 18)
        assert_eq_series(combo.coeff_b[1], cb1, 18)
        done += 1


def test_express_pm_residuals_m45():
    for m in (4, 5):
        combo = express_pm(m, Fraction(2), Fraction(3), 20)
        assert combo.checked_prec >= 20


def test_express_pm_random_residuals():
    rng = random.Random(13)
    for m in (2, 3, 4, 5):
        done = 0
        while done < 3:
            a, b = rand_fraction(rng), rand_fraction(rng)
            if a in (b, -b) or a * b == 1:
                continue
            try:
                combo = express_pm(m, a, b, 20)
            except (EliminationError, DegenerateParameterError):
                continue  # inadmissible sample; the sampler would reject it
            value = combo.evaluate(a, b, 24)
            resid = se.sub(value, pmsum(m, a, b, 24))
            assert resid.is_zero and resid.prec >= 20
            done += 1


def test_pivot_choice_invariance():
    rng = random.Random(77)
    for m in (2, 3, 4):
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a in (b, -b) or a * b == 1:
            continue
        system = build_system(m, a, b, 22)
        sol_min = gauss_solve(system, pivot="min_order")
        sol_first = gauss_solve(system, pivot="first")
        assert len(sol_min) == len(sol_first) == len(system.shifts)
        [t0_min] = gauss_solve(system, pivot="min_order", want=[0])
        [t0_first] = gauss_solve(system, pivot="first", want=[0])
        for c1, c2 in list(zip(sol_min, sol_first)) + [(t0_min, t0_first)]:
            for x, y in zip(c1.coeff_a + c1.coeff_b, c2.coeff_a + c2.coeff_b):
                assert se.eq_to_prec(x, y)[0]


def _admissible_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a not in (b, -b) and a * b != 1:
            pairs.append((a, b))
    return pairs


def _full_gauss_jordan(system, pivot):
    # reference Gauss-Jordan that back-eliminates every pivot row; one
    # combination per shift, in shifts order
    n = len(system.shifts)
    p = system.prec
    rows = [list(row) + [se.one(p) if i == j else se.zero(p) for j in range(n)]
            for i, row in enumerate(system.matrix)]
    free = list(range(n))
    where = []
    for c in range(n):
        cand = [r for r in free if not rows[r][c].is_zero]
        best = cand[0] if pivot == "first" else min(cand, key=lambda r: (rows[r][c].order(), r))
        free.remove(best)
        where.append(best)
        ip = se.invert(rows[best][c])
        rows[best] = [se.mul(x, ip) for x in rows[best]]
        for r in range(n):
            f = rows[r][c]
            if r != best and not f.is_zero:
                rows[r] = [se.sub(x, se.mul(f, y)) for x, y in zip(rows[r], rows[best])]
    combos = []
    for r in where:
        half = dict(zip(system.rhs_labels, rows[r][n:]))
        combos.append(ThetaCombination(system.m, [half["a", j] for j in range(system.m - 1)],
                                       [half["b", j] for j in range(system.m - 1)]))
    return combos


def test_wanted_unknowns_equal_full_solve():
    # solving for some unknowns skips back-elimination of the other pivot
    # rows; each returned combination must be structurally the full one's
    rng = random.Random(31)
    for m in range(2, 7):
        for a, b in [(Fraction(2), Fraction(3))] + _admissible_pairs(rng, 2 if m < 5 else 1):
            system = build_system(m, a, b, 16)
            for pivot in ("min_order", "first"):
                full = _full_gauss_jordan(system, pivot)
                assert gauss_solve(system, pivot=pivot) == full
                for t, combo in zip(system.shifts, full):
                    [alone] = gauss_solve(system, pivot=pivot, want=[t])
                    assert alone == combo, (m, a, b, pivot, t)
                picked = [system.shifts[-1], system.shifts[0]]
                assert gauss_solve(system, pivot=pivot, want=picked) == [full[-1], full[0]]


def test_express_pm_skips_unwanted_back_elimination(monkeypatch):
    a, b = Fraction(2), Fraction(3)
    system = build_system(6, a, b, 6 + eliminator.GUARD_PER_M * 6 + 8)
    calls = [0]
    real_mul = se.mul

    def counting_mul(x, y):
        calls[0] += 1
        return real_mul(x, y)

    monkeypatch.setattr(se, "mul", counting_mul)
    gauss_solve(system)
    full_solve = calls[0]
    # The step for column c multiplies only the 2n - 1 - c entries after
    # column c, in the pivot row and in at most n - 1 others.
    n = len(system.shifts)
    assert full_solve <= sum((2 * n - 1 - c) * n for c in range(n))
    calls[0] = 0
    express_pm(6, a, b, 6)  # builds, solves for t = 0 and checks
    assert calls[0] < full_solve


def test_wanted_shift_validated():
    system = build_system(3, Fraction(2), Fraction(3), 12)
    for want, shift in (([3], "t=3"), ([0, 5], "t=5"), ([1, -1, 1], "t=1"), ([0, 0], "t=0")):
        with pytest.raises(DomainError, match=shift):
            gauss_solve(system, want=want)


def test_express_pm_rejects_nonpositive_precision():
    for prec in (0, -3):
        with pytest.raises(PrecisionError, match="express_pm needs precision >= 1"):
            express_pm(3, Fraction(2), Fraction(3), prec)


def test_unknown_pivot_rejected():
    system = build_system(2, Fraction(2), Fraction(3), 12)
    for pivot in ("max_order", "", "First", None):
        with pytest.raises(DomainError, match="pivot"):
            gauss_solve(system, pivot=pivot)


def test_express_pm_b_equals_minus_a():
    # admissibility is decided by the lambda denominators; either a clean
    # rejection or a checked solution is acceptable
    try:
        combo = express_pm(4, Fraction(2), Fraction(-2), 15)
    except (DegenerateParameterError, EliminationError):
        return
    assert combo.checked_prec >= 15
