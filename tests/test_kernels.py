"""q-kernels: Pochhammer symbols, theta functions, hypergeometric series."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qtheta import kernels, series as se
from qtheta.errors import (DegenerateParameterError, DomainError, FormalDivergenceError,
                           QThetaError)
from qtheta.kernels import (
    _over_sparse,
    _split,
    _times_sparse,
    bhs,
    one_minus,
    qpoch_capped,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
    ratio_stop,
    ratio_sum,
    ratio_terms,
    theta_full,
    theta_partial,
)

from helpers import (
    assert_eq_series,
    brute_poch,
    brute_poch_inf,
    brute_theta,
    qmon,
    qpoch_infinite_by_product,
    rand_fraction,
    theta_partial_by_entries,
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


def _qpoch_by_loop(v, n, step):
    """(v;q^step)_n for a series v as a running product of its factors,
    i.e. the former series branch of kernels.qpoch_finite."""
    acc = se.one(v.prec)
    for i in range(n):
        acc = se.mul(acc, one_minus(v, step * i, v.prec + step * i))
    return acc


def test_poch_series_argument_matches_the_factor_loop():
    # Series arguments of order -2..2, with leading coefficient 1 (so a
    # factor can lose its low terms) or not, and zero to precision: the
    # ring term loop gives structurally the same product, capped or not,
    # and the same error where O(q^-1) has no constant term 1.
    def outcome(run):
        try:
            return run()
        except QThetaError as exc:
            return type(exc), str(exc)

    xs = [se.zero(p) for p in (-1, 0, 4)]
    for c, d, p in itertools.product((Fraction(1), Fraction(-5, 2)), range(-2, 3), (3, 8)):
        xs.append(se.add(se.monomial(c, d, d + p), se.monomial(Fraction(2, 3), d + 1, d + p)))
    for x, n, step, prec in itertools.product(xs, range(7), (1, 2, 3), (-2, 5, 12)):
        want = outcome(lambda: _qpoch_by_loop(x, n, step) if n else se.one(max(prec, 1)))
        capped = want if isinstance(want, tuple) else se.cap(want, prec)
        assert outcome(lambda: qpoch_finite(x, n, prec, step)) == want, (x, n, step, prec)
        assert outcome(lambda: qpoch_capped(x, n, prec, step)) == capped, (x, n, step, prec)


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


# -- Euler's sum and theta's ratio sum against the former loops ------------------


def test_exact_arguments_match_former_loops():
    # Structurally equal, precision included, to the factor product with its
    # derived stop and to theta's sum over a dict of exponents.
    coefs = [0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 4), Fraction(7, 3), Fraction(5, 9)]
    for c, e, prec in itertools.product(coefs, range(-8, 9), (1, 2, 5, 12, 31, 40, 77, 114)):
        x = qmon(c, e)
        assert qpoch_infinite(x, prec) == qpoch_infinite_by_product(x, prec), (c, e, prec)
        if c:
            assert theta_partial(x, prec) == theta_partial_by_entries(x, prec)


_EULER = [(qmon(1), 1, 1, "(q;q)_n")]


def test_exact_monomials_match_ratio_sum():
    # The one integer pass is structurally equal, precision included, to the
    # term stream it replaces: terms of one exponent (k + k' = 1 - 2e for
    # e < 0) add, and (q^e;q)_inf for e <= 0 vanishes.
    coefs = [1, -1, 2, Fraction(1, 3), Fraction(-7, 4), Fraction(7, 3), Fraction(5, 9)]
    for c, e, prec in itertools.product(coefs, range(-8, 9), (1, 2, 5, 12, 31, 40, 77, 114)):
        x = qmon(c, e)
        assert theta_partial(x, prec) == ratio_sum([], [], x, 1, prec), (c, e, prec)
        assert qpoch_infinite(x, prec) == ratio_sum([], _EULER, x, 1, prec), (c, e, prec)
    assert all(qpoch_infinite(qmon(1, e), 20) == se.zero(20) for e in range(-4, 1))


def test_exact_monomials_take_no_term_stream(monkeypatch):
    # A monomial c*q^e makes no exact step and no ratio_sum call, and its one
    # _make gets the block of ratio_stop's n terms, at q^(min cum_k) over
    # cd^(n-1); an N/D argument runs the exact step, and a series argument
    # the ring stream of ratio_sum.
    calls = {"_exact_step": [], "ratio_sum": [], "_make": []}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(kernels, "_exact_step")
    counted(kernels, "ratio_sum")
    counted(se, "_make")
    nd = kernels._exact(((0, 3), (2, 2)), ((0, 2), (1, 5)))
    x = se.add(se.from_rational(Fraction(3, 2), 20), se.monomial(1, 1, 20))

    def run(f, arg):
        for seen in calls.values():
            seen.clear()
        f(arg, 20)
        return {name: len(seen) for name, seen in calls.items()}

    for f, den in ((theta_partial, []), (qpoch_infinite, _EULER)):
        for arg in (qmon(Fraction(3, 2)), qmon(-2, -3), qmon(Fraction(-7, 4), -2)):
            assert run(f, arg) == {"_exact_step": 0, "ratio_sum": 0, "_make": 1}
            cums = ratio_stop([], den, arg, 1, 20)
            (lo, _, d, _), = calls["_make"]
            assert (lo, d) == (min(cums), arg.coef.denominator ** (len(cums) - 1))
        got = run(f, nd)
        assert got["ratio_sum"] == 1 and got["_exact_step"] > 0
        got = run(f, x)
        assert got["ratio_sum"] == 1 and got["_exact_step"] == 0


def test_pochinf_zero_series_argument_has_thetas_guard():
    # Euler's sum has theta's term orders: for x = O(q^P) term n >= 1 is
    # O(q^(nP + C(n,2))), lowest at P - theta_dip(P + 1), which is -6 for
    # P = -3 (terms 3 and 4).
    want = {-3: "O(q^-6)", -2: "O(q^-3)", -1: "O(q^-1)", 0: "O(q^0)",
            1: "1 + O(q^1)", 2: "1 + O(q^2)", 3: "1 + O(q^3)"}
    for p, s in want.items():
        got = qpoch_infinite(se.zero(p), 10)
        assert str(got) == s and got == theta_partial(se.zero(p), 10), p


def _series(d, coefs, prec):
    """sum_i coefs[i] q^(d+i) + O(q^prec), dropping the terms at or above prec."""
    x = se.zero(prec)
    for i, c in enumerate(coefs[:max(0, prec - d)]):
        x = se.add(x, se.monomial(c, d + i, prec))
    return x


_LEADS = (1, -1, Fraction(-3, 2))
_TAIL = [Fraction(2, 3), 0, -1]


def test_pochinf_series_matches_former_product():
    # Same values to the common precision; Euler's sum may claim more.
    for d, lead, dp, prec in itertools.product(range(-3, 3), _LEADS, (1, 2, 4, 12), (1, 5, 20, 40)):
        x = _series(d, [lead] + _TAIL, d + dp)
        if x.prec < 1:
            continue  # the product loop starts from 1 + O(q^x.prec)
        got, want = qpoch_infinite(x, prec), qpoch_infinite_by_product(x, prec)
        assert_eq_series(got, want)
        assert got.prec >= want.prec, (d, lead, dp, prec)


def test_pochinf_series_precision_is_honest():
    # x = O(q^P) is known below q^P only: changing its coefficient at q^P
    # must not move any coefficient below the reported precision, and some
    # change moves the coefficient at it.  A leading coefficient 1 at
    # negative order d makes the factor 1 - x*q^-d vanish to leading order.
    for d, lead, dp, prec in itertools.product(range(-3, 3), _LEADS, (1, 2, 4), (3, 12, 30)):
        coefs = [lead] + _TAIL + [0] * dp
        x = _series(d, coefs, d + dp)
        got = qpoch_infinite(x, prec)
        p = max(1, got.prec + 3)
        base = qpoch_infinite(_series(d, coefs[:dp], d + dp + 40), p)
        moved = False
        for delta in (1, -2, Fraction(5, 3)):
            other = qpoch_infinite(_series(d, coefs[:dp] + [delta], d + dp + 40), p)
            assert other.prec >= got.prec
            assert_eq_series(got, other)
            moved = moved or other.coeff(got.prec) != base.coeff(got.prec)
        assert got.prec == prec or moved, (d, lead, dp, prec)


# -- theta functions ---------------------------------------------------------------


def test_theta_partial_zero():
    assert str(theta_partial(qmon(0), 7)) == "1 + O(q^7)"
    # A zero series x = O(q^P) leaves the terms n >= 1 at O(q^(nP + n(n-1)/2)).
    assert str(theta_partial(se.zero(5), 7)) == "1 + O(q^5)"
    assert str(theta_partial(se.zero(-3), 7)) == "O(q^-6)"


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


_P = (1 << 61) - 1


def _modp(c):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, _P) % _P


def _brute_1phi1_mod(u, l, ez, prec):
    """1phi1(u; l; q, q^ez) for order-0 u, l below q^prec, as {exponent:
    coefficient mod _P}.  Each term (u;q)_k (-1)^k q^(C(k,2)+k*ez)
    / ((q;q)_k (l;q)_k) is rebuilt from its factors at the prec - e_k
    coefficients it needs, e_k its order; past the vertex e_k only grows."""
    um, lm = _modp(u), _modp(l)
    total = {}
    k = 0
    while True:
        e = k * (k - 1) // 2 + k * ez
        if k >= -ez and e >= prec:
            return total
        n = prec - e
        c = [1] + [0] * (n - 1)
        for i in range(k):
            # times 1 - u q^i, then over 1 - q^(i+1) and over 1 - l q^i
            c = [(a - um * b) % _P for a, b in zip(c, [0] * i + c)]
            for j in range(i + 1, n):
                c[j] = (c[j] + c[j - i - 1]) % _P
            if i == 0:
                inv = pow(1 - lm, -1, _P)
                c = [a * inv % _P for a in c]
            else:
                for j in range(i, n):
                    c[j] = (c[j] + lm * c[j - i]) % _P
        for j, a in enumerate(c):
            total[e + j] = (total.get(e + j, 0) + (-a if k % 2 else a)) % _P
        k += 1


def test_bhs_reaches_precision_for_low_order_z():
    # The terms dip to about -ord(z)^2/2 before the series turns; the
    # working precision must absorb the whole dip.
    u, l = Fraction(2, 3), Fraction(5, 7)
    for ez, prec in ((-20, 1), (-24, 2), (-40, 1)):
        got = bhs([u], [l], qmon(1, ez), prec)
        assert got.prec == prec
        want = _brute_1phi1_mod(u, l, ez, prec)
        assert got.min_exp >= min(want)
        assert [_modp(got.coeff(e)) for e in range(min(want), prec)] == \
            [want.get(e, 0) for e in range(min(want), prec)]


def test_bhs_zero_argument():
    assert str(bhs([qmon(2)], [qmon(3)], qmon(0), 9)) == "1 + O(q^9)"


def test_denominator_factor_above_its_order_bound():
    # 1 - l has order 1, above its bound min(0, ord l) = 0, so t_1 has
    # order 0, not ord z = 1: the stop and the term caps must count it.
    l = se.add(se.one(60), se.monomial(1, 1, 60))
    args = ([qmon(2), qmon(3)], [l], qmon(1, 1))
    for prec in (5, 8, 12):
        got = bhs(*args, prec)
        assert got.prec == prec
        assert got == se.cap(bhs(*args, prec + 10), prec)


# -- ratio_sum's running sum ------------------------------------------------------------


def test_ratio_sum_normalizes_its_sum_once(monkeypatch):
    # The terms go into one running block: series.add is never called, and
    # the sum adds at most two _make calls to the terms' own, which are one
    # per term (t_0's cap included) when every factor is exact.
    a, b = Fraction(3, 2), Fraction(-5, 7)
    abm = qmon(a * b, 1 - 3)
    pm3 = ([(abm, 2, 0), (abm, 2, 1)],
           [(qmon(1, 1), 1, 0, "(q;q)_n"), (qmon(a), 1, 0, "(a;q)_n"),
            (qmon(b, 1), 1, 0, "(b;q)_n"), (abm, 1, 0, "(ab/q^3;q)_n")],
           qmon(1, 1), 0)
    x = se.add(se.from_rational(Fraction(2, 3), 30), se.monomial(1, 2, 30))
    theta = ([], [], x, 1)
    add = se.add
    makes = []
    make = se._make
    monkeypatch.setattr(se, "_make", lambda *args: makes.append(1) or make(*args))
    monkeypatch.setattr(se, "add", None)
    for (num, den, z, sr), exact in ((pm3, True), (theta, False)):
        cums = ratio_stop(num, den, z, sr, 20)
        n, dip = len(cums), min(cums)
        makes.clear()
        list(ratio_terms(num, den, z, sr, se.one(22 - dip), n, [20] * n, cums))
        per_terms = len(makes)
        terms = list(ratio_terms(num, den, z, sr, se.one(22 - dip), n))
        makes.clear()
        got = ratio_sum(num, den, z, sr, 20)
        assert n > 5 and len(makes) <= per_terms + 2
        assert per_terms <= n if exact else per_terms > 0
        assert got == se.cap(reduce(add, terms), 20)


# -- ratio_stop: the order bounds cum_k and the stop ------------------------------------


def test_ratio_stop_pins():
    # theta at 3/2: step(k) = k, so cum_k = C(k, 2); 45 >= 40 is the stop.
    cums = ratio_stop([], [], qmon(Fraction(3, 2)), 1, 40)
    assert cums == [0, 0, 1, 3, 6, 10, 15, 21, 28, 36]
    assert ratio_stop([], [], qmon(Fraction(3, 2)), 1, None, least=5) == cums[:5]
    assert ratio_stop([], [], qmon(Fraction(3, 2)), 1) == []
    # Euler's sum at -7/4 q^-3 dips to -6 before it climbs past 20.
    euler = ([], _EULER, qmon(Fraction(-7, 4), -3), 1)
    cums = [0, -3, -5, -6, -6, -5, -3, 0, 4, 9, 15]
    assert ratio_stop(*euler, 20) == cums
    assert ratio_stop(*euler, 20, least=11) == cums
    assert ratio_stop(*euler, 20, least=12) == cums + [22]


def test_ratio_stop_waits_for_stab():
    # 1/(v;q^2)_k with ord(v) = -20 lifts steps 0..9 by 20 - 2k: cum climbs
    # to 15 and past prec = 10 at k = 3, then falls to -10 before z q^k
    # turns it up again.  Only k >= stab = 10 may settle.
    args = ([], [(qmon(2, -20), 2, 0, "den")], qmon(1, -15), 1)
    cums = ratio_stop(*args, 10)
    assert cums == [0, 5, 9, 12, 14, 15, 15, 14, 12, 9, 5, 0,
                    -4, -7, -9, -10, -10, -9, -7, -4, 0, 5]
    assert all(c >= 10 for c in ratio_stop(*args, least=len(cums) + 20)[len(cums):])


# -- division by 1 - c*q^e --------------------------------------------------------------


def _scale_power(u, e):
    """The m of _over_sparse for the quotient u over a divisor whose first
    term past y0 is at q^e: 0 when every u_i is an integer, else
    (len(u) - 1 - j)//e + 1 for the first non-integer u_j."""
    j = next((j for j, x in enumerate(u) if x.denominator != 1), None)
    return 0 if j is None else (len(u) - 1 - j) // e + 1


def test_over_one_minus_matches_long_division():
    # u_j = num_j + c*u_(j-e) is the quotient coefficient by coefficient;
    # the kernel, given cd - cn*q^e, returns it as s/cd^m, scaled only
    # from the first coefficient that is not an integer.
    rng = random.Random(17)
    for cd, sign, e in itertools.product((1, 2, 3, 24), (1, -1), (1, 2, 5, None)):
        for _ in range(3):
            num = [rng.randint(-50, 50) for _ in range(rng.randint(1, 14))]
            cn = sign * rng.randint(1, 9)
            f = e or len(num)
            u = []
            for j, a in enumerate(num):
                u.append(a + (Fraction(cn, cd) * u[j - f] if j >= f else 0))
            s, m = _over_sparse(num, cd, ((f, -cn),))
            assert m == _scale_power(u, f)
            assert [Fraction(x, cd ** m) for x in s] == u


def test_over_one_minus_returns_a_short_block_unchanged():
    # For e >= len(num) no quotient coefficient reaches back e places.
    for num in ([], [3], [4, -1, 7]):
        for e in (len(num), len(num) + 2):
            if e:
                assert _over_sparse(num, 3, ((e, 5),)) == (num, 0)


# -- multiplication by cd - cn*q^e ---------------------------------------------------


def _times_one_minus_full(num, lo, cn, cd, e, top):
    """The whole product block, built before the entries at or above top
    are dropped."""
    z = [0] * abs(e)
    if e >= 0:
        num = [cd * a - cn * b for a, b in zip(num + z, z + num)]
    else:
        num = [cd * a - cn * b for a, b in zip(z + num, num + z)]
        lo += e
    del num[max(0, top - lo):]
    return num, lo


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = [0]

    def __mul__(self, other):
        self.products[0] += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_times_one_minus_builds_only_the_kept_entries():
    rng = random.Random(23)
    for size in (0, 1, 4, 9):
        num = [_Counted(rng.randint(-40, 40)) for _ in range(size)]
        for e, lo, top in itertools.product((-11, -3, -1, 0, 1, 3, size, size + 4),
                                            (-2, 0, 5), (-20, -1, 2, 6, 40)):
            cn, cd = _Counted(rng.choice((-7, 1, 5))), _Counted(rng.choice((1, 3)))
            _Counted.products[0] = 0
            poly = (0, cd, ((e, -cn),)) if e >= 0 else (e, -cn, ((-e, cd),))
            got = _times_sparse(num, lo, poly, top)
            assert _Counted.products[0] <= 2 * len(got[0])
            assert got == _times_one_minus_full(num, lo, cn, cd, e, top)


# -- sparse polynomials of 2 to 5 terms, against Fraction long arithmetic --------------

_sparse = st.dictionaries(st.integers(-4, 6), st.integers(-9, 9).filter(bool),
                          min_size=2, max_size=5).map(lambda d: tuple(sorted(d.items())))
_block = st.lists(st.integers(-50, 50), max_size=12)


@given(_block, st.integers(-3, 3), _sparse, st.integers(-6, 20))
@settings(max_examples=150, deadline=None)
def test_sparse_multiply_matches_long_multiplication(num, lo, poly, top):
    want = {}
    for i, a in enumerate(num):
        for e, c in poly:
            want[lo + i + e] = want.get(lo + i + e, 0) + a * c
    out, lo2 = _times_sparse(num, lo, _split(poly), top)
    assert lo2 == lo + poly[0][0]
    assert len(out) == max(0, min(len(num) + poly[-1][0] - poly[0][0], top - lo2))
    assert out == [want.get(lo2 + j, 0) for j in range(len(out))]


@given(_block, _sparse)
@settings(max_examples=150, deadline=None)
def test_sparse_divide_matches_long_division(num, poly):
    # The quotient by poly/(y0 q^e0) = 1 + sum_r (c_r/y0) q^(e_r - e0),
    # coefficient by coefficient, returned as s/y0^m.
    e0, y0, rest = _split(poly)
    u = []
    for j, a in enumerate(num):
        u.append(a - sum(Fraction(c, y0) * u[j - e] for e, c in rest if e <= j))
    s, m = _over_sparse(num, y0, rest)
    assert m == _scale_power(u, rest[0][0])
    assert [Fraction(x, y0 ** m) for x in s] == u


@pytest.mark.parametrize("size", [2, 3, 8])
def test_sparse_divide_scale_bound_is_tight(size):
    # 1/(7 - 3q) = sum_j 3^j q^j / 7^(j+1): over 7 the last coefficient is
    # 3^(size-1)/7^(size-1), so the scale y0^m needs m = size - 1.
    s, m = _over_sparse([1] + [0] * (size - 1), 7, ((1, -3),))
    assert m == size - 1
    assert s == [3 ** j * 7 ** (size - 1 - j) for j in range(size)]


@pytest.mark.parametrize("num, y0, rest, j", [
    ([3, 0, 1, 0, 0], 3, ((1, -1),), 2),
    ([4, 0, 0, 0, 0, 0, 0, 0], 2, ((2, 1), (3, 1)), 6),
])
def test_sparse_divide_scales_from_the_first_remainder(num, y0, rest, j):
    # The recurrence stays in integers up to the first non-integer quotient
    # coefficient u_j, here past e_1, and scales only for what follows it.
    u = []
    for i, a in enumerate(num):
        u.append(a - sum(Fraction(c, y0) * u[i - e] for e, c in rest if e <= i))
    assert [x.denominator == 1 for x in u].index(False) == j > rest[0][0]
    s, m = _over_sparse(num, y0, rest)
    assert m == (len(num) - 1 - j) // rest[0][0] + 1
    assert [Fraction(x, y0 ** m) for x in s] == u


def test_pm_stream_divides_scale_only_where_needed(monkeypatch):
    # The P_m stream starts at (q,a,b;q)_inf, so its terms are products
    # with small coefficients and here every division of them is exact:
    # the sparse divide never scales its block.  A shift step of the
    # family divides a truncated term by 1 - ab*q^(n+1-m); here one of
    # them has a remainder in its last coefficient only, and scales once.
    from qtheta import sums

    ms = []
    inner = kernels._over_sparse

    def wrapper(*args):
        s, m = inner(*args)
        ms.append(m)
        return s, m
    monkeypatch.setattr(kernels, "_over_sparse", wrapper)
    a, b = Fraction(3, 2), Fraction(-7, 9)
    sums.pmsum(3, a, b, 40)
    assert ms and set(ms) == {0}
    ms.clear()
    sums.pmfamily(3, a, b, 3, 40)
    assert ms.count(1) == 1 and ms.count(0) == len(ms) - 1
