"""Exact values N(q)/D(q) (kernels.QRational): canonical form, where the
evaluator makes them, and the exact kernel path they take.

A value built from exact values with + - * / ^ stays exact, in a
derived binding, a builtin argument or anywhere else; every kernel then
runs its terms on integer blocks (kernels._exact_step) instead of dense
series arithmetic.  The results
must reach the target and agree with the same call on the series
expansion of the argument, to that call's precision.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtheta import dsl, kernels, series as se
from qtheta.dsl import Call, _children, parse
from qtheta.evaluator import _Evaluator
from qtheta.errors import DomainError, QThetaError
from qtheta.identities import load_registry
from qtheta.kernels import QMonomial, QRational, _exact, as_value, _poly_mul, ord_of, ratio_terms, theta_partial, to_series
from qtheta.sums import pmsum
from qtheta.verifier import full_binding

from helpers import exact_by_fraction_euclid, qmon, ratio_terms_by_ring

RECORDS = {i.name: i for i in load_registry()}


def _value(text, **binding):
    return dsl.evaluate_value(parse(text), binding, 20)


def test_canonical_form_is_unique():
    a = Fraction(-5, 7)
    b = _value("(a^2 + a*q^3)/(a*q + q^2)", a=a)
    assert isinstance(b, QRational) and ord_of(b) == -1
    # The same value written another way is the same key.
    assert _value("a*(a + q^3)/(q*(a + q))", a=a) == b
    assert hash(_value("(a + q^3)*a/(a*q + q^2)", a=a)) == hash(b)
    # Common factors cancel, down to a monomial where one is left.
    assert _value("(2*q + 2*q^2)/(3 + 3*q)") == qmon(Fraction(2, 3), 1)
    assert _value("(1 - q^2)/(1 + q)") == _value("1 - q")
    assert _value("(1 + q)^2 - 1 - q^2") == qmon(2, 1)
    assert _value("a*q - a*q", a=a) == qmon(0, 1)  # the evaluator's zero exponent


def test_monomial_coefficient_is_a_fraction_and_compares_by_integers():
    two = QMonomial(2, 1)
    assert type(two.coef) is Fraction and two.coef == 2
    assert QMonomial(Fraction(3, 2)).exp == 0
    same = QMonomial(Fraction(4, 2), 1)
    assert two == same and hash(two) == hash(same)
    assert two != QMonomial(2, 2) and two != QMonomial(Fraction(2, 3), 1)
    assert two != QMonomial(Fraction(3, 2), 1)
    assert QMonomial(2, 0) != 2 and two != _value("(2*q + q^2)/(1 + q^3)")
    assert len({two, same, QMonomial(2, 2), QMonomial(0, 1)}) == 3
    assert repr(QMonomial(Fraction(1, 2), 3)) == "QMonomial(coef=Fraction(1, 2), exp=3)"


def test_as_value_returns_exact_values_and_series_as_they_are():
    values = [QMonomial(Fraction(1, 2), 3), _value("(2*q + q^2)/(1 + q^3)"),
              se.monomial(2, 1, 10)]
    assert isinstance(values[1], QRational)
    for v in values:
        assert as_value(v) is v
    assert as_value(3) == QMonomial(3, 0) and type(as_value(3).coef) is Fraction
    half = Fraction(1, 2)
    assert as_value(half).coef is half


def test_series_operations_take_series():
    # A QRational binding stays exact outside builtin arguments too, so
    # b*(1 - q) is exact and reaches the target.  As a series at the
    # target, b of order -1 cost the product one order.
    b = _value("(a^2 + a*q^3)/(a*q + q^2)", a=Fraction(2, 3))
    got = dsl.evaluate(parse("b*(1 - q)"), {"b": b}, 12)
    want = se.mul(to_series(b, 13), se.add(se.one(13), se.monomial(-1, 1, 13)))
    short = se.mul(to_series(b, 12), se.add(se.one(12), se.monomial(-1, 1, 12)))
    assert got == want and got.prec == 12
    assert short.prec == 11 and se.eq_to_prec(got, short)[0]


@pytest.mark.parametrize("n", range(-3, 4))
def test_val_pow_of_each_kind_matches_pow_int(n):
    # v**n of a monomial, an exact zero, a QRational and a series equals
    # pow_int of v's expansion, to precision, and is exact for an exact v;
    # an exact zero to a negative power is a DomainError, as inverting a
    # zero series raises.
    p = 15
    b = _value("(a^2 + a*q^3)/(a*q + q^2)", a=Fraction(2, 3))
    for v in (qmon(Fraction(-2, 3), 2), qmon(0), b,
              se.add(se.monomial(1, -1, p), se.monomial(3, 1, p))):
        if ord_of(v) is None and n < 0:
            with pytest.raises(DomainError, match="^zero raised to a negative power$"):
                kernels._val_pow(v, n)
            with pytest.raises(QThetaError):
                se.pow_int(to_series(v, p), n)
            continue
        got = kernels._val_pow(v, n)
        want = se.pow_int(to_series(v, p), n)
        assert isinstance(got, se.LaurentSeries) == isinstance(v, se.LaurentSeries), (v, n)
        assert se.eq_to_prec(to_series(got, p), want)[0], (v, n)


def test_pm_with_cor34_b_reaches_its_target():
    # b expanded to the target, as the derived series binding was, leaves
    # P_3 short of it; the exact b reaches it.
    a = Fraction(-5, 7)
    b = _value("(a^2 + a*q^3)/(a*q + q^2)", a=a)
    for prec in (90, 100):
        got = pmsum(3, a, b, prec)
        short = pmsum(3, a, to_series(b, prec), prec)
        assert got.prec == prec and short.prec < prec
        assert se.eq_to_prec(got, short)[0]


def _calls(node):
    if isinstance(node, Call):
        yield node
    for sub in _children(node):
        yield from _calls(sub)


# Pm(3, a, b) of cor3.4; S(a, b) and theta(b) of cor4.3; cor3.6's Pm and
# its two Omega calls.
_SITES = [(name, render) for name in ("cor3.4", "cor4.3", "cor3.6")
          for render in sorted({dsl.render(c) for side in (RECORDS[name].lhs, RECORDS[name].rhs)
                                for c in _calls(side) if c.name != "theta" or name == "cor4.3"})]


def test_call_sites_cover_the_rational_records():
    assert [r for _, r in _SITES] == [
        "Pm(3, a, b)",
        "S(a, b)", "theta(b)",
        "Omega(a * q^2, q^2 + q^3 - a * q^2)", "Omega(a, 1 + q - a)",
        "Pm(3, a * q, q + q^2 - a * q)"]


@pytest.mark.parametrize("prec", (30, 60, 100))
@pytest.mark.parametrize("name, text", _SITES)
def test_call_site_reaches_target_and_agrees_with_series(name, text, prec):
    node = parse(text)
    binding = full_binding(RECORDS[name], {"a": Fraction(-5, 7)}, prec)
    key = _Evaluator(binding, prec).key(node, {})
    assert any(isinstance(x, QRational) for x in key[1])
    kernel = dsl._BUILTINS[node.name].kernel
    got = kernel(*key[1], p=prec)
    assert got.prec >= prec
    ser = kernel(*(to_series(x, prec) if isinstance(x, QRational) else x for x in key[1]),
                 p=prec)
    assert se.eq_to_prec(got, ser)[0], (got, ser)


def test_theta_of_a_polynomial_against_its_terms():
    # theta(1 + q) = sum_n (-1)^n q^C(n,2) (1 + q)^n, summed by hand.
    x = _value("1 + q")
    acc, power = se.zero(12), se.one(30)
    for n in range(12):
        term = se.shift(power, n * (n - 1) // 2)
        acc = se.add(acc, se.neg(term) if n % 2 else term)
        power = se.mul(power, to_series(x, 30))
    assert theta_partial(x, 12) == se.cap(acc, 12)


# -- ratio_terms on exact N/D values against the ring reference --------------------

_poly = st.dictionaries(st.integers(-2, 3), st.integers(-6, 6).filter(bool),
                        min_size=1, max_size=3).map(lambda d: tuple(sorted(d.items())))
_val = st.builds(lambda n, d: _exact(n, d), _poly, _poly).filter(lambda v: ord_of(v) is not None)
# A series c_0 q^lo + ... + O(q^p) next to the N/D values, zero to O(q^p) when c_0 is.
_ser = st.builds(lambda lo, cs, p: se.add_all([se.monomial(c, lo + i, lo + p)
                                               for i, c in enumerate(cs)] + [se.zero(lo + p)]),
                 st.integers(-2, 1), st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                 st.integers(3, 8))
_mixed = st.one_of(_val, _val, _ser)
_num = st.lists(st.tuples(_mixed, st.integers(1, 2), st.integers(0, 2)), max_size=2)
_den = st.lists(st.tuples(_mixed, st.integers(1, 2), st.integers(0, 2), st.just("den")),
                max_size=3)


def _outcome(terms):
    out = []
    try:
        out.extend(terms)
    except QThetaError as exc:
        out.append(type(exc))
    return out


@given(_num, _den, st.one_of(_val, _ser.filter(lambda z: not z.is_zero)),
       st.integers(0, 2), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_rational_terms_agree_with_the_ring_path(num, den, z, sr, n):
    # The exact step moves each term's precision by the N/D factor's true
    # order, also next to series values, so it reaches at least the ring
    # reference's precision, which pads each exact factor by a constant.
    t0 = se.one(12)
    got = _outcome(ratio_terms(num, den, z, sr, t0, n))
    want = _outcome(ratio_terms_by_ring(num, den, z, sr, t0, n))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, type):
            assert g is w
        else:
            assert se.eq_to_prec(g, w)[0] and g.prec >= w.prec, (num, den, z, sr, g, w)


def test_series_next_to_a_cancelling_nd_factor():
    # 1 - v = 3/5 q^5 for v = 1 - 3/5 q^5: with a series z the term keeps
    # the exact step's precision, one above the ring reference, whose
    # factor 1 - v is built to a padded precision that binds here.
    v = _exact(((0, 5), (5, -3)), ((0, 5),))
    z = se.add(se.from_rational(Fraction(2, 3), 12), se.monomial(1, 2, 12))
    args = ([], [(v, 1, 0, "den")], z, 0, se.one(10), 3)
    got, want = list(ratio_terms(*args)), list(ratio_terms_by_ring(*args))
    assert [t.prec for t in got] == [10, 5, 5] and [t.prec for t in want] == [10, 4, 4]
    assert all(se.eq_to_prec(g, w)[0] for g, w in zip(got, want))


# -- the integer gcd of _exact against the Fraction Euclid ---------------------------


def _rand_poly(rng, terms, lo=0):
    return kernels._poly((rng.randint(lo, 6), rng.choice([-1, 1]) * rng.randint(1, 12))
                         for _ in range(terms))


def test_integer_gcd_matches_the_fraction_euclid():
    # N = A*G and D = B*G with a planted common factor G (sometimes G^2,
    # or a second factor shared with only N); A and N may carry negative
    # exponents.  The canonical form must be the one the Fraction Euclid
    # gives, QMonomial where a single term is left.
    rng = random.Random(20261020)
    nontrivial = monomials = 0
    for _ in range(400):
        g = _rand_poly(rng, rng.randint(2, 4))
        a = _rand_poly(rng, rng.randint(1, 4), lo=-3)
        b = _rand_poly(rng, rng.randint(1, 4))
        if not (a and b and len(g) > 1):
            continue
        if rng.random() < 0.3:
            g = _poly_mul(g, g)
        if rng.random() < 0.3:
            a = _poly_mul(a, _rand_poly(rng, 2))
        num, den = _poly_mul(a, g), _poly_mul(b, g)
        got = _exact(num, den)
        assert got == exact_by_fraction_euclid(num, den), (num, den)
        nontrivial += len(got.den if isinstance(got, QRational) else ()) < len(den)
        monomials += not isinstance(got, QRational)
    assert nontrivial > 200 and monomials > 0
