"""kernels.ratio_terms on exact factors against the ring-operation reference.

Exact factor values and z run on raw integer terms; the reference
(helpers.ratio_terms_by_ring) builds every factor as a series and applies
it with mul/divide.  The two must give structurally equal terms, with the
same precisions, and raise the same errors at the same term.

A truncated sum builds each term only to the precision the sum keeps
(ratio_terms' ``top``); it must equal the sum of the uncapped terms,
truncated.  A DSL sum with a residual R_n also builds R_n only to the
precision its term keeps; it must equal the evaluation with every term
uncapped and every R_n at the target, errors included.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtheta import dsl, evaluator, series as se
from qtheta.errors import BoundViolationError, EvalError, QThetaError
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


def _grid():
    """(num, den, z, sr) over factor values c*q^e, c in _COEFS, -4 <= e < 4."""
    for c, e in itertools.product(_COEFS, range(-4, 4)):
        v = qmon(c, e)
        shapes = [
            ([(v, 1, 0)], []),
            ([], [(v, 1, 0, "den")]),
            ([(v, 2, 1), (qmon(2, -1), 1, 0)], [(v, 1, 1, "den"), (qmon(-1), 1, 1, "q")]),
        ]
        for (num, den), sr, z in itertools.product(
                shapes, (-1, 0, 3), (qmon(1, 1), qmon(Fraction(-3, 5), -1))):
            yield num, den, z, sr


@pytest.mark.parametrize("t0", list(_T0.values()), ids=list(_T0))
def test_grid_matches_ring(t0):
    errors = 0
    for num, den, z, sr in _grid():
        got = _assert_same(num, den, z, sr, t0, 6)
        errors += isinstance(got[-1], tuple)
        for n in (0, 1, 2):
            assert _outcome(ratio_terms(num, den, z, sr, t0, n)) == got[:max(n, 1)]
    assert errors > 0  # vanishing denominators are in the grid


def test_grid_stop_bounds_its_terms():
    # Every cum_k bounds ord(t_k) of the uncapped terms from t_0 = 1.  Where
    # the sum converges, least=n extends the stop list, of length s, to
    # max(n, s) entries, and no cum_k past the stop is below prec.
    stops = 0
    for num, den, z, sr in _grid():
        cums = ratio_stop(num, den, z, sr, least=12)
        assert len(cums) == 12
        for cum, t in zip(cums, _outcome(ratio_terms(num, den, z, sr, se.one(30), 12))):
            if isinstance(t, tuple):
                break  # a vanishing denominator factor
            assert cum <= t._ord(), (num, den, z, sr)
        if sr < 0 or sr == 0 and ord_of(z) <= 0:
            continue
        for prec in (-3, 0, 7, 20):
            stop = ratio_stop(num, den, z, sr, prec)
            s = len(stop)
            stops += s > 1
            for n in (0, 1, s - 1, s, s + 1, s + 5):
                got = ratio_stop(num, den, z, sr, prec, least=n)
                assert len(got) == max(n, s) and got[:s] == stop, (num, den, z, sr, prec, n)
                assert got == ratio_stop(num, den, z, sr, least=len(got))
            assert all(c >= prec for c in ratio_stop(num, den, z, sr, least=s + 12)[s:])
    assert stops > 0


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
    cums = ratio_stop(num, den, z, sr, prec)
    t0 = se.one(prec - min(cums, default=0) + 2)
    return se.cap(se.add_all(ratio_terms(num, den, z, sr, t0, len(cums))), prec)


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


def _eval_outcome(node, binding, prec):
    """dsl.evaluate's value, or the error's type, message and position."""
    try:
        return dsl.evaluate(node, binding, prec)
    except EvalError as exc:
        return type(exc), str(exc), exc.pos


def _without_demands(monkeypatch):
    """Switch off the per-term demands: uncapped terms, and every R_k at
    the target precision."""
    real = evaluator.ratio_terms
    monkeypatch.setattr(evaluator, "ratio_terms",
                        lambda num, den, z, sr, t0, n, top=None, cums=None:
                        real(num, den, z, sr, t0, n))
    monkeypatch.setattr(evaluator._Evaluator, "residual",
                        lambda self, r, ienv, need: self.product(r, ienv))


_RATIONAL = {text: dsl.evaluate_value(dsl.parse(text), {}, 1)
             for text in ("(3 + 2*q^2)/(2 + 5*q)", "(1 - q)/(3 + q^3)")}


def test_dsl_infinite_sums_cap_their_terms(monkeypatch):
    texts = [
        "sum(n,0,inf,(-1)^n*q^binom2(n)*a^n,binom2(n))",
        "sum(n,0,inf, poch(a*b/q^2, 2*n)*q^n"
        "/(poch(q,n)*poch(a,n)*poch(b,n)*poch(a*b/q^2,n)), n - 3)",
        # Bodies with a residual R_n: t_n is built to prec - ord(R_n), and
        # R_n to prec - ord(t_0) - cum_n.
        "sum(n,0,inf,theta(a*q^n)*q^n/poch(q,n),n)",
        "sum(n,0,inf,V(2,n,a,b)*q^binom2(n)*b^n/poch(q,n),binom2(n))",
        "sum(n,0,inf,ThetaK(n,a,b)*q^(2*n),2*n)",
        "sum(n,0,inf,theta(a*q^(n-3))*(-1)^n*q^(2*n),2*n-6)",  # ord R_n < 0
        "sum(n,0,inf,(q^2 - q^n)*theta(a*q^n)*q^n,n)",  # R_2 is an exact 0
    ]
    bindings = [{"a": Fraction(3, 2), "b": Fraction(-5, 7)},
                {"a": qmon(Fraction(3, 2), -3), "b": qmon(2, 1)},
                {"a": _RATIONAL["(3 + 2*q^2)/(2 + 5*q)"], "b": _RATIONAL["(1 - q)/(3 + q^3)"]},
                {"a": se.add(se.one(30), se.monomial(1, 1, 30)), "b": qmon(Fraction(-2, 3), 2)},
                {"a": se.add(se.one(40), se.monomial(1, 1, 40)), "b": qmon(Fraction(-2, 3), 2)}]
    nodes = [dsl.parse(t) for t in texts]
    grid = [(node, b, prec) for node in nodes for b in bindings for prec in (1, 12, 30)]

    def evaluate_grid():
        return [dsl.evaluate(node, b, prec) for node, b, prec in grid]

    capped = evaluate_grid()
    _without_demands(monkeypatch)
    for case, got, want in zip(grid, capped, evaluate_grid()):
        assert got == want, case


def test_nd_bindings_stay_exact_in_a_prefactor():
    # a*b/q^2 of these N/D bindings has order -1.  Built as a series at
    # target 1 it had no constant term left, and the sum raised
    # "constant term not representable"; exact, it keeps every term.
    node = dsl.parse("sum(n,0,inf, poch(a*b/q^2, 2*n)*q^n"
                     "/(poch(q,n)*poch(a,n)*poch(b,n)*poch(a*b/q^2,n)), n - 3)")
    b = {"a": _RATIONAL["(3 + 2*q^2)/(2 + 5*q)"], "b": _RATIONAL["(1 - q)/(3 + q^3)"]}
    assert dsl.evaluate(node, b, 1) == se.from_string("5/2 + O(q^1)")
    assert se.eq_to_prec(dsl.evaluate(node, b, 1), dsl.evaluate(node, b, 12))[0]


def test_residual_raises_what_the_target_raises(monkeypatch):
    # R_n holds an inner sum, which is evaluated below the target 30 for
    # n > 0.  The first inner orderbound, 5, never reaches 30.  The second
    # inner residual divides by zero at m = 27 when n = 5, an index the
    # inner sum reaches at 30 but not at its reduced precision 25.  In the
    # third, the inner prefactor q^-3 * sum_j q^j is evaluated again 3
    # above its precision, where the j-sum's bound 32 (at n = 1) reaches
    # the reduced 29 + 3 but not 30 + 3.  Each raises the error, message
    # and position of the evaluation at the target.
    texts = ["sum(n,0,inf,q^(n+25)*sum(m,0,inf,q^(m+n),5),n)",
             "sum(n,0,inf,q^n*sum(m,0,inf,q^m/(1 - q^(m - 27 + 40*(n - 5)*(n - 5))),m),n)",
             "sum(n,0,inf,q^n*sum(m,0,inf,sum(j,0,inf,q^j,32 + 68*(n - 1)*(n - 1))*q^(m - 3),m),n)"]
    nodes = [dsl.parse(t) for t in texts]
    got = [_eval_outcome(node, {}, 30) for node in nodes]
    _without_demands(monkeypatch)
    want = [_eval_outcome(node, {}, 30) for node in nodes]
    assert got == want
    assert [w[0] for w in want] == [BoundViolationError, EvalError, BoundViolationError]
    assert want[0][1].startswith("orderbound below 30 after 400 iterations")
    assert want[1][1].startswith("division by zero")
    assert want[2][1].startswith("orderbound below 33 after 430 iterations")


def test_residual_short_at_the_reduced_precision(monkeypatch):
    # 1/(theta(x) - 1 + x) with x = a*q^(n+d) divides by a series of order
    # 2(n+d) + 1.  Where R_n's reduced precision is at or below that order,
    # the divisor is zero there and the division raises; above it, R_n is
    # short of its need, as a division by a series of positive order is.
    # Either way R_n is evaluated again at the target, so the sum is the
    # one with every R_n at the target: its value (short of the target in
    # the first body, at it in the second), or its error, message and
    # position (the third, whose divisor is zero at the target too).
    texts = [
        "sum(n,0,inf,q^(3*n)/(theta(a*q^(n+2)) - 1 + a*q^(n+2)),3*n)",
        "sum(n,0,inf,q^(3*n+20)/(theta(a*q^(n+2)) - 1 + a*q^(n+2)),3*n)",
        "sum(n,0,inf,q^(3*n+6)/(theta(a*q^(n+9)) - 1 + a*q^(n+9)),3*n)",
    ]
    bindings = [{"a": Fraction(2)}, {"a": _RATIONAL["(1 - q)/(3 + q^3)"]}]
    divisor = dsl.parse("theta(a*q^2) - 1 + a*q^2")
    assert dsl.evaluate(divisor, bindings[0], 5).is_zero
    assert not dsl.evaluate(divisor, bindings[0], 6).is_zero
    grid = [(dsl.parse(t), b, prec) for t in texts for b in bindings for prec in (1, 12, 30)]
    got = [_eval_outcome(*case) for case in grid]
    _without_demands(monkeypatch)
    want = [_eval_outcome(*case) for case in grid]
    for case, g, w in zip(grid, got, want):
        assert g == w, case
    assert any(isinstance(w, tuple) for w in want)
    assert any(isinstance(w, se.LaurentSeries) and w.prec < case[2]
               for case, w in zip(grid, want))
    assert any(isinstance(w, se.LaurentSeries) and w.prec == case[2] > 1
               for case, w in zip(grid, want))
