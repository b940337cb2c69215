"""Eliminator: the exact system, its modular solve and certificate, theta combinations."""

import hashlib
import random
from fractions import Fraction

import pytest

from qtheta import eliminator, series as se
from qtheta.errors import DegenerateParameterError, DomainError, EliminationError, PrecisionError
from qtheta.eliminator import (
    PolynomialSystem,
    build_system,
    express_pm,
    gauss_solve,
)
from qtheta.kernels import _val_shift, as_value
from qtheta.sums import lam, pmsum

from helpers import assert_eq_series, qmon, rand_fraction


def test_build_system_m2_shape():
    a, b = Fraction(2), Fraction(3)
    sys2 = build_system(2, a, b)
    assert sys2.shifts == [0, 1]
    # rows: X_0 + b X_1 = theta(a) and X_0 + a X_1 = theta(b)
    assert sys2.matrix == [[(1,), (3,)], [(1,), (2,)]]
    assert sys2.scales == [(1,), (1,)]
    # a denominator is cleared: b = 3/4 gives 4 X_0 + 3 X_1 = 4 theta(a)
    sys2 = build_system(2, a, Fraction(3, 4))
    assert sys2.matrix[0] == [(4,), (3,)] and sys2.scales[0] == (4,)


def test_build_system_m3_shape():
    sys3 = build_system(3, Fraction(2), Fraction(3))
    assert sys3.shifts == [-1, 0, 1, 2]
    assert len(sys3.matrix) == 4
    assert sys3.rhs_labels == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def _poly_series(coeffs, prec):
    return se._make(0, list(coeffs), 1, prec)


def test_rows_are_lam_rows_times_their_scale():
    # Row (v, j) is lam(m, k, c/q^j) at column t = k - j, c the other
    # parameter, multiplied by scales[r]: every entry is in Z[q].
    rng = random.Random(5)
    p = 30
    for m in range(2, 7):
        for a, b in [(Fraction(2), Fraction(3))] + _admissible_pairs(rng, 2):
            system = build_system(m, a, b)
            for row, scale, (kind, j) in zip(system.matrix, system.scales, system.rhs_labels):
                c = _val_shift(as_value(b if kind == "a" else a), -j)
                for k in range(m):
                    want = se.mul(lam(m, k, c, p), _poly_series(scale, p + 40))
                    got = _poly_series(row[k - j + m - 2], p + 40)
                    assert_eq_series(got, want, p - 10)
                assert all(not e for i, e in enumerate(row) if not 0 <= i - (m - 2) + j < m)


def test_singular_system_equal_parameters():
    sys2 = build_system(2, Fraction(2), Fraction(2))
    with pytest.raises(EliminationError):
        gauss_solve(sys2)
    for m in range(2, 7):
        with pytest.raises(EliminationError, match="singular"):
            express_pm(m, Fraction(2), Fraction(2), 10)


def test_identity_matrix_system():
    # A hand-built system B = I: X_t is scales[r] theta_r for its own row r.
    n = 4
    matrix = [[(1,) if i == j else () for j in range(n)] for i in range(n)]
    labels = [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
    scales = [(1,), (0, 2), (3, 0, 1), (1, 1)]
    system = PolynomialSystem(3, qmon(2), qmon(2), [-1, 0, 1, 2], matrix, scales, labels)
    combos = gauss_solve(system)
    own = [(0, (1,)), (1, (2,)), (0, (3, 0, 1)), (0, (1, 1))]
    for i, combo in enumerate(combos):
        assert combo.det == (0, (1,))
        assert combo.numer == [own[i] if r == i else (0, ()) for r in range(n)]
    assert combos[1].expand(1, 5) == se.monomial(2, 1, 5)
    assert combos[1].expand(0, 5) == se.zero(5)


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
    assert h.hexdigest() == "0ba37c413c1a7565c584dfb2bc48e063caef9ee379a72b0bc1c1c4c7379a2272"


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


def _admissible_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a not in (b, -b) and a * b != 1:
            pairs.append((a, b))
    return pairs


def _series_system(m, a, b, prec):
    # The system over the series field: row (v, j) holds lam(m, k, c/q^j),
    # c the other parameter, at column t = k - j, with theta(v/q^j) on the
    # right.  Row order is build_system's.
    matrix = []
    for j in range(m - 1):
        for c in (as_value(b), as_value(a)):
            row = [se.zero(prec)] * (2 * (m - 1))
            for k in range(m):
                row[k - j + m - 2] = lam(m, k, _val_shift(c, -j), prec)
            matrix.append(row)
    return matrix


def _full_gauss_jordan(matrix, prec, pivot):
    # reference Gauss-Jordan over the series field on [A | I] that
    # back-eliminates every pivot row; for each column in order, the right
    # half of its pivot row: that unknown's theta coefficients
    n = len(matrix)
    rows = [list(row) + [se.one(prec) if i == j else se.zero(prec) for j in range(n)]
            for i, row in enumerate(matrix)]
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
    return [rows[r][n:] for r in where]


def test_pivot_choice_invariance():
    # Every exact coefficient of every unknown, expanded to the series
    # solve's precision, equals it exactly, whichever pivot rule the series
    # Gauss-Jordan uses.
    rng = random.Random(31)
    for m in range(2, 7):
        for a, b in [(Fraction(2), Fraction(3))] + _admissible_pairs(rng, 2 if m < 5 else 1):
            exact = gauss_solve(build_system(m, a, b))
            matrix = _series_system(m, a, b, 16)
            for pivot in ("min_order", "first"):
                for combo, ref in zip(exact, _full_gauss_jordan(matrix, 16, pivot)):
                    for r, c in enumerate(ref):
                        assert combo.expand(r, c.prec) == c, (m, a, b, pivot, r)


def test_wanted_unknowns_equal_full_solve():
    # Solving for some unknowns gives the combinations of the full solve,
    # in the order asked for.
    rng = random.Random(31)
    for m in range(2, 7):
        for a, b in [(Fraction(2), Fraction(3))] + _admissible_pairs(rng, 2 if m < 5 else 1):
            system = build_system(m, a, b)
            exact = gauss_solve(system)
            assert len(exact) == len(system.shifts)
            for t, combo in zip(system.shifts, exact):
                assert gauss_solve(system, want=[t]) == [combo], (m, a, b, t)
            picked = [system.shifts[-1], system.shifts[0]]
            assert gauss_solve(system, want=picked) == [exact[-1], exact[0]]


def test_express_pm_divides_once_per_coefficient(monkeypatch):
    # No lam coefficient is computed: beyond the direct P_m evaluation,
    # express_pm makes one series division per theta coefficient.
    def no_lam(*args):
        raise AssertionError("lam called")

    monkeypatch.setattr(eliminator, "lam", no_lam)
    calls = [0]
    real_divide = se.divide

    def counting_divide(x, y):
        calls[0] += 1
        return real_divide(x, y)

    monkeypatch.setattr(se, "divide", counting_divide)
    a, b = Fraction(2), Fraction(3)
    for m in (2, 4, 6):
        calls[0] = 0
        pmsum(m, a, b, 20)
        direct = calls[0]
        calls[0] = 0
        express_pm(m, a, b, 20)
        assert calls[0] == direct + 2 * (m - 1)


@pytest.mark.parametrize("call", [0, 1, 3])
def test_perturbed_interpolation_fails_the_certificate(monkeypatch, call):
    # Interpolation 0 is det B's, the others the adjugate row's: one
    # coefficient off by one in any of them must not pass.
    real = eliminator._interpolate
    seen = [0]

    def perturbed(xs, vals, p):
        poly = real(xs, vals, p)
        if seen[0] == call:
            poly[len(poly) // 2] = (poly[len(poly) // 2] + 1) % p
        seen[0] += 1
        return poly

    monkeypatch.setattr(eliminator, "_interpolate", perturbed)
    with pytest.raises(EliminationError, match="certificate"):
        express_pm(4, Fraction(2), Fraction(3), 10)
    assert seen[0] > call


def test_point_singular_mod_p_restarts_the_run(monkeypatch):
    # A point where B(x) is singular mod p (forced here at x = 3) is
    # skipped: the values start again at x = 4, and the result is the same.
    system = build_system(5, Fraction(3, 4), Fraction(6, 7))
    [plain] = gauss_solve(system, want=[0])
    real = eliminator._at_point
    seen = []

    def singular_at_3(terms, top, x, cols, p):
        seen.append(x)
        return (0, None) if x == 3 else real(terms, top, x, cols, p)

    monkeypatch.setattr(eliminator, "_at_point", singular_at_3)
    assert gauss_solve(system, want=[0]) == [plain]
    assert seen[:4] == [1, 2, 3, 4] and seen.count(3) == 1


def test_modulus_below_the_height_bound_fails(monkeypatch):
    a, b = Fraction(3, 4), Fraction(6, 7)
    [exact] = gauss_solve(build_system(5, a, b), want=[0])
    small = 2**31 - 1
    # the premise: det B has a coefficient that no residue mod small lifts
    assert max(abs(c) for c in exact.det[1]) > small // 2
    monkeypatch.setattr(eliminator, "_modulus", lambda height: small)
    with pytest.raises(EliminationError):
        express_pm(5, a, b, 10)


def _strong_probable_prime(n, bases=(3, 5, 7)):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modulus_is_a_prime_above_twice_the_height():
    assert list(eliminator._PRIMES) == sorted(eliminator._PRIMES)
    assert all(_strong_probable_prime(p) for p in eliminator._PRIMES)
    for height in (1, 2**60, 2**200, 2**254, 2**4000):
        p = eliminator._modulus(height)
        assert p > 2 * height and p in eliminator._PRIMES
    with pytest.raises(EliminationError, match="height"):
        eliminator._modulus(2**4423)


def test_series_parameters_rejected():
    b = se.add(se.from_rational(3, 10), se.monomial(1, 1, 10))
    with pytest.raises(DomainError, match="exact"):
        express_pm(3, Fraction(2), b, 8)
    with pytest.raises(DomainError, match="exact"):
        build_system(3, b, Fraction(2))


def test_wanted_shift_validated():
    system = build_system(3, Fraction(2), Fraction(3))
    for want, shift in (([3], "t=3"), ([0, 5], "t=5"), ([1, -1, 1], "t=1"), ([0, 0], "t=0")):
        with pytest.raises(DomainError, match=shift):
            gauss_solve(system, want=want)


def test_express_pm_rejects_nonpositive_precision():
    for prec in (0, -3):
        with pytest.raises(PrecisionError, match="express_pm needs precision >= 1"):
            express_pm(3, Fraction(2), Fraction(3), prec)


def test_express_pm_b_equals_minus_a():
    # admissibility is decided by the lambda denominators; either a clean
    # rejection or a checked solution is acceptable
    try:
        combo = express_pm(4, Fraction(2), Fraction(-2), 15)
    except (DegenerateParameterError, EliminationError):
        return
    assert combo.checked_prec >= 15
