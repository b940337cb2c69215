"""kernels.ratio_terms on exact factors against the ring-operation reference.

Exact factor values and z run on raw integer terms; the reference
(helpers.ratio_terms_by_ring) builds every factor as a series and applies
it with mul/divide.  The two must give structurally equal terms, with the
same precisions, and raise the same errors at the same term.

A truncated sum builds each term only to the precision the sum keeps
(ratio_terms' ``top``); it must equal the sum of the uncapped terms,
truncated.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtheta import dsl, evaluator, series as se
from qtheta.errors import QThetaError
from qtheta.kernels import ord_of, ratio_stop, ratio_sum, ratio_terms

from helpers import qmon, ratio_terms_by_ring


def _outcome(terms):
    """The yielded terms, then (error type, message) if the generator raised."""
    out = []
    try:
        for t in terms:
            out.append(t)
    except QThetaError as exc:
        out.append((type(exc), str(exc)))
    return out


def _assert_same(num, den, z, sr, t0, n):
    got = _outcome(ratio_terms(num, den, z, sr, t0, n))
    want = _outcome(ratio_terms_by_ring(num, den, z, sr, t0, n))
    assert got == want, (num, den, z, sr, t0, n)
    return got


_COEFS = [0, 1, -1, Fraction(2, 3), Fraction(-7, 4), 5]
_T0 = {
    "one": se.one(9),
    "zero": se.zero(4),
    "mixed": se._make(-2, [3, 0, -2, 0, 0, 10], 2, 6),
}


@pytest.mark.parametrize("t0", list(_T0.values()), ids=list(_T0))
def test_grid_matches_ring(t0):
    errors = 0
    for c, e in itertools.product(_COEFS, range(-4, 4)):
        v = qmon(c, e)
        shapes = [
            ([(v, 1, 0)], []),
            ([], [(v, 1, 0, "den")]),
            ([(v, 2, 1), (qmon(2, -1), 1, 0)], [(v, 1, 1, "den"), (qmon(-1), 1, 1, "q")]),
        ]
        for (num, den), sr, z in itertools.product(
                shapes, (-1, 0, 3), (qmon(1, 1), qmon(Fraction(-3, 5), -1))):
            got = _assert_same(num, den, z, sr, t0, 6)
            errors += isinstance(got[-1], tuple)
            for n in (0, 1, 2):
                assert _outcome(ratio_terms(num, den, z, sr, t0, n)) == got[:max(n, 1)]
    assert errors > 0  # vanishing denominators are in the grid


def test_vanishing_factors():
    one = se.one(8)
    # 1 - q^(k-2) vanishes at k = 2: the numerator zeroes every later term.
    terms = _assert_same([(qmon(1, -2), 1, 0)], [], qmon(1, 1), 0, one, 6)
    assert [t.is_zero for t in terms] == [False] * 3 + [True] * 3
    # ... and in a denominator it raises when t_3 is asked for.
    terms = _assert_same([], [(qmon(1, -2), 1, 0, "den")], qmon(1, 1), 0, one, 6)
    assert len(terms) == 4 and "den: factor 1 - v*q^2 vanishes" in terms[-1][1]


def test_exact_factors_stay_off_the_series_ring(monkeypatch):
    num = [(qmon(Fraction(2, 3), -3), 2, 1)]
    den = [(qmon(1), 1, 1, "q"), (qmon(Fraction(-7, 4), -2), 1, 0, "a")]
    want = list(ratio_terms_by_ring(num, den, qmon(5, 1), 1, se.one(12), 8))

    def refuse(*args):
        raise AssertionError("series ring operation on exact factors")
    for name in ("mul", "divide", "scale", "mul_monomial"):
        monkeypatch.setattr(se, name, refuse)
    assert list(ratio_terms(num, den, qmon(5, 1), 1, se.one(12), 8)) == want


def test_series_arguments_take_the_ring_loop():
    v = se.add(se.from_rational(Fraction(2, 3), 10), se.monomial(1, 2, 10))
    for num, den, z in [([(v, 1, 0)], [], qmon(1, 1)),
                        ([], [(v, 1, 1, "den")], qmon(-2, 1)),
                        ([(qmon(3), 1, 0)], [], se.monomial(1, 1, 9))]:
        _assert_same(num, den, z, 1, se.one(10), 5)


_mon = st.builds(qmon, st.sampled_from(_COEFS + [Fraction(1, 3), Fraction(-3, 2)]),
                 st.integers(-4, 3))
_num = st.lists(st.tuples(_mon, st.integers(1, 3), st.integers(0, 2)), max_size=3)
_den = st.lists(st.tuples(_mon, st.integers(1, 3), st.integers(0, 2), st.just("den")),
                max_size=4)


@st.composite
def _t0(draw):
    lo = draw(st.integers(-4, 3))
    coeffs = draw(st.lists(st.integers(-9, 9), max_size=6))
    return se._make(lo, coeffs, draw(st.integers(1, 5)),
                    lo + len(coeffs) + draw(st.integers(0, 8)))


@given(_num, _den, _mon.filter(lambda z: z.coef != 0), st.integers(-2, 3), _t0(),
       st.integers(0, 7))
@settings(max_examples=200, deadline=2000)
def test_hyp_matches_ring(num, den, z, sr, t0, n):
    _assert_same(num, den, z, sr, t0, n)


# -- truncated sums: capped terms against uncapped ones ------------------------


def _uncapped_sum(num, den, z, sr, prec):
    """ratio_sum with every term at its own precision, truncated at the end."""
    n, dip = ratio_stop(num, den, z, sr, prec)
    return se.cap(se.add_all(ratio_terms(num, den, z, sr, se.one(prec - dip + 2), n)), prec)


def _sum_outcome(f, *args):
    """f(*args), or (error type, message) if it raised."""
    try:
        return f(*args)
    except QThetaError as exc:
        return type(exc), str(exc)


def _assert_cap_keeps_sum(*args):
    got = _sum_outcome(ratio_sum, *args)
    assert got == _sum_outcome(_uncapped_sum, *args), args
    return got


_SER = se.add(se.from_rational(Fraction(2, 3), 30), se.monomial(1, 2, 30))
_LEAD1 = se.add(se.one(40), se.monomial(3, 2, 40))  # 1 - _LEAD1 has order 2, not 0
_VALUES = {
    "3/2q^-3": qmon(Fraction(3, 2), -3),
    "-5/7q^-1": qmon(Fraction(-5, 7), -1),
    "2q": qmon(2, 1),
    "q^-2": qmon(1, -2),  # 1 - v*q^2 vanishes
    "series": _SER,
    "series/q^2": se.shift(_SER, -2),
    "lead1": _LEAD1,
    "lead1/q": se.shift(_LEAD1, -1),
}
_Z = [qmon(1, 1), qmon(Fraction(-2, 3), 2), qmon(3, -1), se.shift(_SER, 1)]


def test_capped_sum_equals_uncapped_grid():
    # Exact values of negative order make cum dip before it settles; q^-2
    # in the numerator zeroes every term from t_3 on, and in a denominator
    # raises; series values and z take the ring path, and lead1 divides by
    # a factor of higher order than min(0, ord v + e).
    outcomes = set()
    for (v, w), z, sr in itertools.product(
            itertools.product(_VALUES.values(), repeat=2), _Z, (0, 1, 2)):
        if sr == 0 and ord_of(z) <= 0:
            continue
        for num, den in (([(v, 1, 0)], [(qmon(1), 1, 1, "q"), (w, 1, 0, "w")]),
                         ([(v, 2, 1), (w, 1, 0)], [(w, 1, 1, "w")])):
            for prec in (1, 9):
                got = _assert_cap_keeps_sum(num, den, z, sr, prec)
                outcomes.add(isinstance(got, tuple))
    assert outcomes == {False, True}  # vanishing denominators are in the grid


@given(_num, _den, _mon.filter(lambda z: z.coef != 0), st.integers(0, 3), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_hyp_capped_sum_equals_uncapped(num, den, z, sr, prec):
    assume(sr > 0 or z.exp > 0)
    _assert_cap_keeps_sum(num, den, z, sr, prec)


def test_dsl_infinite_sums_cap_their_terms(monkeypatch):
    texts = [
        "sum(n,0,inf,(-1)^n*q^binom2(n)*a^n,binom2(n))",
        "sum(n,0,inf, poch(a*b/q^2, 2*n)*q^n"
        "/(poch(q,n)*poch(a,n)*poch(b,n)*poch(a*b/q^2,n)), n - 3)",
    ]
    bindings = [{"a": Fraction(3, 2), "b": Fraction(-5, 7)},
                {"a": qmon(Fraction(3, 2), -3), "b": qmon(2, 1)},
                {"a": se.add(se.one(30), se.monomial(1, 1, 30)), "b": qmon(Fraction(-2, 3), 2)}]
    nodes = [dsl.parse(t) for t in texts]
    capped = [[dsl.evaluate(node, b, prec) for b in bindings for prec in (1, 12)]
              for node in nodes]
    real = evaluator.ratio_terms
    monkeypatch.setattr(evaluator, "ratio_terms",
                        lambda num, den, z, sr, t0, n, top=None: real(num, den, z, sr, t0, n))
    uncapped = [[dsl.evaluate(node, b, prec) for b in bindings for prec in (1, 12)]
                for node in nodes]
    assert capped == uncapped
