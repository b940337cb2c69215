"""q-kernels: Pochhammer symbols, theta functions, hypergeometric series."""

import itertools
import random
from fractions import Fraction

import pytest

from qtheta import series as se
from qtheta.errors import DegenerateParameterError, DomainError, FormalDivergenceError
from qtheta.kernels import (
    bhs,
    qpoch_capped,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
    theta_full,
    theta_partial,
)

from helpers import (
    assert_eq_series,
    brute_poch,
    brute_poch_inf,
    brute_theta,
    qmon,
    rand_fraction,
)


# -- finite Pochhammer ---------------------------------------------------------


def test_poch_empty_product():
    assert str(qpoch_finite(qmon(5), 0, 4)) == "1 + O(q^4)"


def test_poch_qq2():
    s = qpoch_finite(qmon(1, 1), 2, 10)
    assert [s.coeff(e) for e in range(5)] == [1, -1, -1, 1, 0]


def test_poch_reflection_example():
    # (x;q)_3 at x = 2 equals (-1)^3 q^3 2^3 (q^-2/2;q)_3
    lhs = qpoch_finite(qmon(2), 3, 12)
    rhs = se.mul_monomial(qpoch_finite(qmon(Fraction(1, 2), -2), 3, 18), Fraction(-8), 3)
    assert_eq_series(lhs, rhs, 12)


def test_poch_reflection_property():
    rng = random.Random(4)
    for _ in range(6):
        x = rand_fraction(rng, exclude=(0,))
        k = rng.randint(0, 6)
        lhs = qpoch_finite(qmon(x), k, 14)
        sign = Fraction(-1) ** k * x ** k
        rhs = se.mul_monomial(
            qpoch_finite(qmon(1 / x, 1 - k), k, 20 + 2 * k), sign, k * (k - 1) // 2
        )
        assert_eq_series(lhs, rhs, 12)


def test_poch_splice_property():
    rng = random.Random(12)
    for _ in range(8):
        x = rand_fraction(rng)
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        whole = qpoch_finite(qmon(x), m + n, 15)
        split = se.mul(qpoch_finite(qmon(x), m, 15), qpoch_finite(qmon(x, m), n, 15))
        assert_eq_series(whole, split, 14)


def test_poch_brute_oracle_series_argument():
    x = se.from_string("q^-1 + 2 + O(q^9)")
    assert_eq_series(qpoch_finite(x, 3, 9), brute_poch(x, 3, 9))


def test_poch_step_two():
    # (q;q^2)_3 = (1-q)(1-q^3)(1-q^5)
    got = qpoch_finite(qmon(1, 1), 3, 12, step=2)
    assert_eq_series(got, brute_poch(qmon(1, 1), 3, 12, step=2), 12)
    # Exact c*q^e, e in -6..6, steps 1..3, lengths 0..12: factors 1 - c*q^f
    # with f < 0, f = 0 and f > 0 all occur, and c = 1 meets 1 - q^0.  The
    # whole product is exact, up to its top exponent.
    for c, e, step, n in itertools.product((Fraction(1), Fraction(-7, 3)), range(-6, 7),
                                           (1, 2, 3), range(13)):
        dip = sum(min(0, e + step * i) for i in range(n))
        top = sum(max(0, e + step * i) for i in range(n))
        got = qpoch_finite(qmon(c, e), n, 12, step)
        want = brute_poch(qmon(c, e), n, top + 1 - dip, step)
        assert_eq_series(got, want, None if want.is_zero else top + 1)


def test_poch_negative_length_rejected():
    with pytest.raises(DomainError):
        qpoch_finite(qmon(2), -1, 8)
    for step in (0, -1):  # a step below 1 is rejected, also for exact x
        with pytest.raises(DomainError):
            qpoch_capped(qmon(1, -1), 3, 8, step)


def test_qpoch_capped_matches_finite():
    rng = random.Random(77)
    for _ in range(10):
        x = rand_fraction(rng, exclude=(0,))
        e = rng.randint(-2, 2)
        n = rng.randint(0, 9)
        full = qpoch_finite(qmon(x, e), n, 12)
        capped = qpoch_capped(qmon(x, e), n, 12)
        assert_eq_series(full, capped, 12)
    # The cases of test_poch_step_two: the running product drops exponents
    # the remaining factors cannot bring below q^prec, and nothing more.
    # The negative factors come first, so only prec <= 0 needs their dip.
    for c, e, step, n, prec in itertools.product((Fraction(1), Fraction(-7, 3)), range(-6, 7),
                                                 (1, 2, 3), range(13), (12, -3)):
        dip = sum(min(0, e + step * i) for i in range(n))
        capped = qpoch_capped(qmon(c, e), n, prec, step)
        assert capped.prec == prec
        want = se.cap(brute_poch(qmon(c, e), n, max(1, prec - dip), step), prec)
        assert_eq_series(capped, want, prec)


# -- infinite Pochhammer ----------------------------------------------------------


def test_pochinf_zero_argument():
    assert str(qpoch_infinite(qmon(0), 5)) == "1 + O(q^5)"


def test_pochinf_euler():
    s = qpoch_infinite(qmon(1, 1), 6)
    assert [s.coeff(e) for e in range(6)] == [1, -1, -1, 0, 0, 1]


def test_pochinf_rational_argument():
    got = qpoch_infinite(qmon(2), 4)
    assert_eq_series(got, brute_poch_inf(qmon(2), 4), 4)


def test_pochinf_splits_as_finite_times_shifted():
    # (x;q)_n = (x;q)_inf / (x q^n;q)_inf
    rng = random.Random(6)
    for _ in range(5):
        x = rand_fraction(rng)
        n = rng.randint(0, 5)
        lhs = qpoch_finite(qmon(x), n, 12)
        rhs = se.divide(qpoch_infinite(qmon(x), 14), qpoch_infinite(qmon(x, n), 14))
        assert_eq_series(lhs, rhs, 12)


def test_pochinf_negative_order_argument():
    x = qmon(Fraction(3), -2)
    got = qpoch_infinite(x, 8)
    assert_eq_series(got, brute_poch_inf(x, 8))
    for c, e in itertools.product((Fraction(7, 3), Fraction(-1, 2)), range(-6, -2)):
        # The oracle's slack covers the e(e-1)/2 its leading factors dip.
        want = brute_poch_inf(qmon(c, e), 10, slack=8 + e * (e - 1) // 2)
        assert_eq_series(qpoch_infinite(qmon(c, e), 10), want, 10)


def test_qpoch_multi():
    got = qpoch_multi([qmon(1, 1), qmon(2), qmon(Fraction(1, 2), 1)], 12)
    want = se.mul(
        se.mul(qpoch_infinite(qmon(1, 1), 12), qpoch_infinite(qmon(2), 12)),
        qpoch_infinite(qmon(Fraction(1, 2), 1), 12),
    )
    assert_eq_series(got, want, 12)


# -- theta functions ---------------------------------------------------------------


def test_theta_partial_zero():
    assert str(theta_partial(qmon(0), 7)) == "1 + O(q^7)"


def test_theta_partial_q():
    s = theta_partial(qmon(1, 1), 7)
    assert [s.coeff(e) for e in range(7)] == [1, -1, 0, 1, 0, 0, -1]


def test_theta_partial_negative_order_example():
    s = theta_partial(qmon(2, -1), 3)
    assert s.coeff(-1) == 2 and s.coeff(0) == -7 and s.coeff(2) == 16


def test_theta_partial_series_argument_matches_brute():
    x = se.from_string("2*q^-1 + 1 + O(q^12)")
    assert_eq_series(theta_partial(x, 8), brute_theta(x, 8))


def test_theta_full_antisymmetry_at_q():
    s = theta_full(qmon(1, 1), 10)
    assert s.is_zero and s.prec == 10


def test_theta_full_zero_rejected():
    with pytest.raises(DomainError):
        theta_full(qmon(0), 8)
    with pytest.raises(DomainError):
        theta_full(se.zero(8), 8)


def test_theta_full_triple_product_example():
    lhs = theta_full(qmon(2), 12)
    rhs = qpoch_multi([qmon(1, 1), qmon(2), qmon(Fraction(1, 2), 1)], 12)
    assert_eq_series(lhs, rhs, 12)


def test_theta_full_jacobi_property_random():
    # The triple product checks theta_full independently of its split into
    # two partial theta sums, for exact and for series arguments.
    rng = random.Random(21)
    for _ in range(5):
        x = rand_fraction(rng, exclude=(0,))
        for e in range(-3, 4):
            lhs = theta_full(qmon(x, e), 12)
            rhs = qpoch_multi([qmon(1, 1), qmon(x, e), qmon(1 / x, 1 - e)], 12)
            assert_eq_series(lhs, rhs, 12)
    for text in ("2 - 1/3*q + q^3 + O(q^16)", "3*q^-1 + 1 + q^2 + O(q^16)",
                 "1/2*q^2 - q^3 + O(q^16)"):
        x = se.from_string(text)
        lhs = theta_full(x, 12)
        rhs = qpoch_multi([qmon(1, 1), x, se.shift(se.invert(x), 1)], 12)
        assert_eq_series(lhs, rhs, 12)


def test_theta_full_split_into_partials():
    x = qmon(3)
    lhs = theta_full(x, 12)
    split = se.add(theta_partial(x, 12),
                   se.sub(theta_partial(qmon(Fraction(1, 3), 1), 12), se.one(12)))
    assert_eq_series(lhs, split, 12)


def test_theta_shift_down_property():
    rng = random.Random(31)
    for _ in range(6):
        a = rand_fraction(rng)
        lhs = theta_partial(qmon(a, -1), 10)
        rhs = se.sub(se.one(10), se.mul_monomial(theta_partial(qmon(a), 12), a, -1))
        assert_eq_series(lhs, rhs, 10)


# -- basic hypergeometric series -----------------------------------------------------


def test_bhs_upper_one_terminates_immediately():
    got = bhs([qmon(1), qmon(2)], [qmon(5)], qmon(7), 10)
    assert_eq_series(got, se.one(10), 10)


def test_bhs_eq11_single_instance():
    # n=1 instance of the terminating very-well-poised sum, a = 4 (s = 2).
    s, b, c = Fraction(2), Fraction(3), Fraction(5)
    a = s * s
    n = 1
    upper = [qmon(a), qmon(s, 1), qmon(-s, 1), qmon(b), qmon(c), qmon(1, -n)]
    lower = [qmon(s), qmon(-s), qmon(a / b, 1), qmon(a / c, 1), qmon(a, n + 1)]
    z = qmon(a / (b * c), n + 1)
    lhs = bhs(upper, lower, z, 15)
    num = se.mul(qpoch_finite(qmon(a, 1), n, 15), qpoch_finite(qmon(a / (b * c), 1), n, 15))
    den = se.mul(qpoch_finite(qmon(a / b, 1), n, 15), qpoch_finite(qmon(a / c, 1), n, 15))
    assert_eq_series(lhs, se.divide(num, den), 15)


def test_bhs_eq11_all_n_random():
    rng = random.Random(88)
    for trial in range(3):
        s = rand_fraction(rng)
        b = rand_fraction(rng)
        c = rand_fraction(rng)
        a = s * s
        for n in range(7):
            upper = [qmon(a), qmon(s, 1), qmon(-s, 1), qmon(b), qmon(c), qmon(1, -n)]
            lower = [qmon(s), qmon(-s), qmon(a / b, 1), qmon(a / c, 1), qmon(a, n + 1)]
            z = qmon(a / (b * c), n + 1)
            lhs = bhs(upper, lower, z, 12)
            num = se.mul(qpoch_finite(qmon(a, 1), n, 14),
                         qpoch_finite(qmon(a / (b * c), 1), n, 14))
            den = se.mul(qpoch_finite(qmon(a / b, 1), n, 14),
                         qpoch_finite(qmon(a / c, 1), n, 14))
            assert_eq_series(lhs, se.divide(num, den), 12)


def test_bhs_formal_divergence_detected():
    with pytest.raises(FormalDivergenceError):
        bhs([qmon(2), qmon(3)], [qmon(5)], qmon(7), 10)


def test_bhs_singular_lower_detected():
    # lower parameter 1 makes (1;q)_k vanish at k >= 1
    with pytest.raises(DegenerateParameterError):
        bhs([qmon(2), qmon(3)], [qmon(1)], qmon(1, 1), 10)


def test_bhs_nonterminating_with_positive_order_z():
    # 2phi1(a, b; c; q, q) is formally convergent; check against raw terms.
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    got = bhs([qmon(a), qmon(b)], [qmon(c)], qmon(1, 1), 8)
    acc = se.zero(12)
    for k in range(14):
        term = se.mul(brute_poch(qmon(a), k, 12), brute_poch(qmon(b), k, 12))
        term = se.divide(term, se.mul(brute_poch(qmon(1, 1), k, 12),
                                      brute_poch(qmon(c), k, 12)))
        acc = se.add(acc, se.shift(term, k))
    assert_eq_series(got, se.cap(acc, 8), 8)


def test_bhs_zero_argument():
    assert str(bhs([qmon(2)], [qmon(3)], qmon(0), 9)) == "1 + O(q^9)"
