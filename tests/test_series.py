"""Series-core: constructors, precision rules, field ops, rendering."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qtheta import series as se
from qtheta.errors import PrecisionError, SeriesZeroDivision


def S(text):
    return se.from_string(text)


# -- constructors ---------------------------------------------------------------


def test_monomial():
    m = se.monomial(Fraction(3, 2), -1, 10)
    assert m.min_exp == -1 and m.prec == 10
    assert m.coeff(-1) == Fraction(3, 2)
    assert m.coeff(5) == 0


def test_from_rational_zero_is_canonical_zero():
    z = se.from_rational(0, 5)
    assert z.is_zero and z.prec == 5
    assert z == se.zero(5)


def test_one():
    o = se.one(4)
    assert str(o) == "1 + O(q^4)"


def test_monomial_beyond_precision_rejected():
    with pytest.raises(PrecisionError):
        se.monomial(1, 10, 10)


# -- add ------------------------------------------------------------------------


def test_add_basic():
    assert str(se.add(S("1 + q + O(q^5)"), S("q^2 + O(q^5)"))) == "1 + q + q^2 + O(q^5)"


def test_add_negate_gives_zero():
    x = S("2 + 3*q - q^3 + O(q^7)")
    s = se.add(x, se.neg(x))
    assert s.is_zero and s.prec == 7


def test_add_drops_terms_beyond_joint_precision():
    s = se.add(S("1 + O(q^3)"), S("q^4 + O(q^10)"))
    assert str(s) == "1 + O(q^3)"


# -- mul ------------------------------------------------------------------------


def test_mul_basic():
    s = se.mul(S("1 + q + O(q^10)"), S("1 - q + O(q^10)"))
    assert str(s) == "1 - q^2 + O(q^10)"


def test_mul_inverse_monomials():
    s = se.mul(se.monomial(1, -1, 9), se.monomial(1, 1, 11))
    assert s.coeff(0) == 1 and s.order() == 0


def test_mul_zero_precision_rule():
    # zero(5) * (q^-2 + ..., prec 8) -> zero with prec 5 + (-2) = 3
    y = S("q^-2 + q + O(q^8)")
    s = se.mul(se.zero(5), y)
    assert s.is_zero and s.prec == 3


def test_mul_precision_rule_orders():
    x = S("q^2 + O(q^6)")
    y = S("q^-1 + 1 + O(q^4)")
    s = se.mul(x, y)
    assert s.prec == min(6 + -1, 4 + 2)


# -- invert / divide --------------------------------------------------------------


def test_invert_geometric():
    assert str(se.invert(S("1 - q + O(q^4)"))) == "1 + q + q^2 + q^3 + O(q^4)"


def test_invert_monomial_precision():
    s = se.invert(S("2*q^3 + O(q^10)"))
    assert str(s) == "1/2*q^-3 + O(q^4)"


def test_invert_derived_example():
    x = S("q + q^2 + O(q^6)")
    inv = se.invert(x)
    assert inv.prec == 6 - 2 * 1
    back = se.mul(x, inv)
    assert se.eq_to_prec(back, se.one(back.prec))[0]
    assert str(inv) == "q^-1 - 1 + q - q^2 + q^3 + O(q^4)"


def test_invert_zero_rejected():
    with pytest.raises(SeriesZeroDivision):
        se.invert(se.zero(5))
    with pytest.raises(SeriesZeroDivision):
        se.divide(se.one(5), se.zero(5))


def test_divide_matches_mul_invert():
    # mul(x, invert(y)) == divide(x, y) as stored series, precision included.
    # Leading numerators both below and above 2^32 are drawn (`paths`).
    rng = random.Random(7)
    for _ in range(40):
        x = _rand_series(rng)
        y = _rand_series(rng)
        if y.is_zero:
            continue
        lhs = se.divide(x, y)
        assert lhs == se.mul(x, se.invert(y))
        assert lhs.prec == min(x.prec - y.min_exp,
                               y.prec + x._ord() - 2 * y.min_exp)
    paths = set()
    for dy in (-3, -1, 0, 1, 4):
        for y0 in (1, -5, 2**32 - 1, 2**32, -(3**30), 7**40):
            for _ in range(6):
                tail = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
                den = rng.randint(1, 6)
                y = se._make(dy, [y0] + tail, den, dy + len(tail) + 1 + rng.randint(0, 8))
                paths.add(abs(y._num[0]) >> 32 == 0)
                for x in (se.zero(rng.randint(-4, 12)), _rand_series(rng), _rand_series(rng, 9)):
                    assert se.mul(x, se.invert(y)) == se.divide(x, y)
    assert paths == {True, False}


def _long_division(x, y):
    # x / y one exponent at a time over exact Fractions, at the precision
    # min(x.prec - d, y.prec + ord(x) - 2d): a reference sharing no code
    # with se.divide.  Returns (prec, {exponent: nonzero coefficient}).
    d = y.order()
    lo = x._ord() - d
    prec = min(x.prec - d, y.prec + lo - d)
    r = {}
    for e in range(lo, prec):
        s = x.coeff(e + d) - sum(y.coeff(d + k) * r[e - k] for k in range(1, e - lo + 1))
        r[e] = s / y.coeff(d)
    return prec, {e: c for e, c in r.items() if c}


def test_divide_matches_long_division():
    # Divisors shaped like pivots: leading numerators 1, -5, 2^32 +- 1,
    # -(3^30) and 7^40*c, a stored denominator sharing a factor with the
    # leading numerator, negative orders.  Dividends are longer and shorter
    # than the quotient, and zero.
    rng = random.Random(11)
    leads = (1, -5, 2**32 - 1, 2**32 + 1, -(3**30), 6 * 7**40)
    for y0 in leads:
        for dy in (-3, 0, 2):
            for yden in (1, 6, 35):
                for _ in range(2):
                    tail = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
                    y = se._make(dy, [y0] + tail, yden, dy + len(tail) + 1 + rng.randint(0, 8))
                    lo = rng.randint(-4, 4)
                    xs = [se.zero(rng.randint(-4, 12))]
                    for span in (1, 2, 30):
                        num = [rng.randint(-9, 9) or 1 for _ in range(span)]
                        xs.append(se._make(lo, num, rng.choice((1, 6, 7)), lo + span + rng.randint(0, 12)))
                    for x in xs:
                        got = se.divide(x, y)
                        prec, coeffs = _long_division(x, y)
                        assert got.prec == prec
                        assert dict(got.terms()) == coeffs
                        back = se.mul(got, y)
                        assert back.prec == got.prec + dy
                        assert se.eq_to_prec(back, x)[0]


# -- accessors ---------------------------------------------------------------------


def test_coeff_at():
    x = S("1 - q^2 + O(q^5)")
    assert x.coeff(2) == -1
    assert x.coeff(3) == 0
    with pytest.raises(PrecisionError):
        x.coeff(5)


def test_pow_int():
    assert str(se.pow_int(S("1 + q + O(q^10)"), 2)) == "1 + 2*q + q^2 + O(q^10)"
    x = S("1 - q + O(q^8)")
    assert se.eq_to_prec(se.pow_int(x, -2), se.invert(se.mul(x, x)))[0]


def test_shift():
    assert str(se.shift(se.one(4), -3)) == "q^-3 + O(q^1)"


def test_truncate():
    x = S("1 + q + q^2 + O(q^9)")
    t = se.truncate(x, 2)
    assert str(t) == "1 + q + O(q^2)"
    with pytest.raises(PrecisionError):
        se.truncate(x, 10)


def test_eq_to_prec_reports_joint_precision():
    ok, p = se.eq_to_prec(S("1 + O(q^3)"), S("1 + q^4 + O(q^8)"))
    assert ok and p == 3


# -- ring and precision laws over >= 1000 randomized cases -------------------------


def _rand_series(rng, max_span=5):
    prec = rng.randint(-2, 9)
    if rng.random() < 0.15:
        return se.zero(prec)
    lo = rng.randint(-4, 4)
    span = rng.randint(1, max_span)
    num = [rng.randint(-6, 6) for _ in range(span)]
    den = rng.randint(1, 6)
    return se._make(lo, num, den, max(prec, lo + span + rng.randint(0, 3)))


def test_ring_laws_randomized_1000():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        x, y, z = (_rand_series(rng) for _ in range(3))
        # commutativity is structural (canonical forms)
        assert se.add(x, y) == se.add(y, x)
        assert se.mul(x, y) == se.mul(y, x)
        # associativity and distributivity to joint precision
        a1 = se.add(se.add(x, y), z)
        a2 = se.add(x, se.add(y, z))
        assert a1 == a2
        m1 = se.mul(se.mul(x, y), z)
        m2 = se.mul(x, se.mul(y, z))
        assert se.eq_to_prec(m1, m2)[0]
        d1 = se.mul(x, se.add(y, z))
        d2 = se.add(se.mul(x, y), se.mul(x, z))
        assert se.eq_to_prec(d1, d2)[0]
        # stated precision rules
        assert se.add(x, y).prec == min(x.prec, y.prec)
        assert se.mul(x, y).prec == min(x.prec + y._ord(), y.prec + x._ord())
        checked += 1
    assert checked == 1000


def test_invert_two_sided_randomized():
    rng = random.Random(99)
    done = 0
    while done < 200:
        x = _rand_series(rng)
        if x.is_zero:
            continue
        inv = se.invert(x)
        prod = se.mul(x, inv)
        ok, p = se.eq_to_prec(prod, se.one(max(prod.prec, 1)))
        assert ok and p == prod.prec
        assert inv.prec == x.prec - 2 * x.min_exp
        done += 1


def test_precision_soundness_recompute_higher():
    # Wrap the same exact polynomial at two precisions; every operation must
    # agree on all coefficients below the lower-precision result's prec.
    rng = random.Random(5)
    for _ in range(300):
        lo1, num1 = rng.randint(-3, 3), [rng.randint(-5, 5) for _ in range(4)]
        lo2, num2 = rng.randint(-3, 3), [rng.randint(-5, 5) for _ in range(4)]
        p1 = rng.randint(5, 8)
        p2 = p1 + rng.randint(1, 5)
        xs = se._make(lo1, list(num1), 1, lo1 + 12)
        ys = se._make(lo2, list(num2), 1, lo2 + 12)
        for op in (se.add, se.mul):
            low = op(se.cap(xs, p1), se.cap(ys, p1))
            high = op(se.cap(xs, p2), se.cap(ys, p2))
            for e in range(min(low.min_exp, high.min_exp, 0) - 1, low.prec):
                assert low.coeff(e) == high.coeff(e)


def test_canonical_form_after_operations():
    rng = random.Random(11)
    for _ in range(300):
        x, y = _rand_series(rng), _rand_series(rng)
        for s in (se.add(x, y), se.mul(x, y), se.sub(x, y)):
            if s._num:
                assert s._num[0] != 0 and s._num[-1] != 0
                assert s.min_exp + len(s._num) <= s.prec
            assert s._den > 0


# -- hypothesis properties -----------------------------------------------------------

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def series_st(draw):
    lo = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=6))
    den = draw(st.integers(1, 9))
    extra = draw(st.integers(0, 4))
    return se._make(lo, coeffs, den, lo + len(coeffs) + extra)


@given(series_st(), series_st())
@settings(max_examples=150, deadline=None)
def test_hyp_add_commutes(x, y):
    assert se.add(x, y) == se.add(y, x)


@given(series_st(), series_st())
@settings(max_examples=150, deadline=None)
def test_hyp_mul_commutes_and_tracks_precision(x, y):
    p = se.mul(x, y)
    assert p == se.mul(y, x)
    assert p.prec == min(x.prec + y._ord(), y.prec + x._ord())


@given(series_st())
@settings(max_examples=100, deadline=None)
def test_hyp_invert_round_trip(x):
    if x.is_zero:
        return
    prod = se.mul(x, se.invert(x))
    assert se.eq_to_prec(prod, se.one(max(prod.prec, prod._ord() + 1)))[0]


@st.composite
def add_all_term_st(draw):
    # Coprime and negative denominators; a negative extra lowers the
    # precision into the block, down to a zero-to-precision term.
    lo = draw(st.integers(-6, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), max_size=6))
    den = draw(st.sampled_from([1, 2, 3, 5, 7, 12, -1, -4, -35]))
    return se._make(lo, coeffs, den, lo + len(coeffs) + draw(st.integers(-3, 4)))


ADD_ALL_EXAMPLES = [
    [S("2/3*q^-1 + q + O(q^4)")],  # a single term
    [se.zero(3), S("1 + q + O(q^5)"), se.zero(7)],  # zero-to-precision terms
    [S("1 + q + q^2 + O(q^6)"), S("q + O(q^2)"), S("q^-1 + O(q^9)")],  # mixed precisions
    [S("1 + O(q^2)"), S("q^3 + q^4 + O(q^9)")],  # wholly above the running precision
    [S("q^2 + O(q^8)"), S("3/2*q^-3 + O(q^8)")],  # a later, lower min_exp
    [se._make(0, [1, 1], -3, 5), se._make(1, [2], 7, 5),  # coprime and negative
     se._make(-1, [1], -10, 4)],                          # denominators
    [S("1/2 + 1/3*q + O(q^5)"), S("-1/2 - 1/3*q + O(q^5)")],  # cancels to zero
]


def with_add_all_examples(test):
    for xs in ADD_ALL_EXAMPLES:
        test = example(xs)(test)
    return test


@given(st.lists(add_all_term_st(), min_size=1, max_size=6))
@with_add_all_examples
@settings(max_examples=300, deadline=2000)
def test_hyp_add_all_equals_repeated_add(xs):
    # add is add_all of two terms: streaming all terms at once equals
    # summing them pairwise, with a normalization after each pair.
    assert se.add_all(iter(xs)) == reduce(se.add, xs)


@given(st.lists(add_all_term_st(), min_size=1, max_size=6))
@with_add_all_examples
@settings(max_examples=300, deadline=2000)
def test_hyp_add_all_matches_fraction_sums(xs):
    # Reference independent of se.add: exact Fractions summed per exponent
    # below the joint precision.  add_all, pairwise add, and sub (x_0 less
    # each later term) must each give it in normal form.
    prec = min(x.prec for x in xs)
    for got, signs in ((se.add_all(iter(xs)), [1] * len(xs)),
                       (reduce(se.add, xs), [1] * len(xs)),
                       (reduce(se.sub, xs), [1] + [-1] * (len(xs) - 1))):
        sums = {}
        for x, sign in zip(xs, signs):
            for e, c in x.terms():
                if e < prec:
                    sums[e] = sums.get(e, 0) + sign * c
        assert got.prec == prec
        assert dict(got.terms()) == {e: c for e, c in sums.items() if c}
        if got._num:
            assert got._num[0] and got._num[-1] and got._den > 0
            assert gcd(got._den, *got._num) == 1


def test_add_all_empty():
    with pytest.raises(ValueError):
        se.add_all([])
    assert se.add_all(iter(()), se.zero(4)) == se.zero(4)
    # A default is returned only for an empty iterable.
    assert se.add_all([se.one(3)], se.zero(1)) == se.one(3)


# -- rendering ------------------------------------------------------------------------


def test_render_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        x = _rand_series(rng)
        assert se.from_string(str(x)) == x


def test_render_format():
    x = se._make(-1, [3, 0, -2], 2, 5)
    assert str(x) == "3/2*q^-1 - q + O(q^5)"
    assert str(se.zero(6)) == "O(q^6)"


def test_from_string_reads_a_series_longer_than_the_parse_depth():
    # Each term is parsed on its own, so 300 terms do not nest 300 deep.
    x = se._make(-3, [(-1) ** i * (i + 1) for i in range(300)], 7, 297)
    assert se.from_string(str(x)) == x


def test_from_string_rejects_garbage():
    for text in ("1 + q",  # no precision marker
                 "1 + banana + O(q^5)", "1 + a + O(q^5)", "1 2 + O(q^5)",
                 "\u0663*q + O(q^5)", "q^\u00b2 + O(q^5)"):
        with pytest.raises(ValueError):
            se.from_string(text)
