"""DSL sums: the H_n / R_n split, the stop rules, and agreement with the
term-by-term evaluation of the body (helpers.sum_by_terms)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qtheta import dsl, evaluator
from qtheta import series as se
from qtheta.dsl import Sum, parse
from qtheta.errors import BoundViolationError, EvalError, QThetaError
from qtheta.evaluator import _Evaluator
from qtheta.identities import load_registry
from qtheta.kernels import QMonomial, _val_mul, to_series
from qtheta.verifier import full_binding, sample_params

from helpers import assert_eq_series, sum_by_terms


def _sums(node):
    """Every Sum node of a tree."""
    if isinstance(node, Sum):
        yield node
    for name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            for sub in child if isinstance(child, tuple) else (child,):
                if hasattr(sub, "__dataclass_fields__"):
                    yield from _sums(sub)


def _corpus_sums():
    for ident in load_registry():
        for tree in (ident.lhs, ident.rhs):
            for node in _sums(tree):
                yield ident, node


def _split(text, binding=None, lo=0, kmax=None):
    node = parse(text)
    ev = _Evaluator(binding or {}, 10)
    return ev.split(node.body, node.var, {node.var: lo}, kmax)


# -- the split ----------------------------------------------------------------------


def test_corpus_split_counts():
    # 16 of the corpus's 38 sum bodies are pure H_n; the rest carry V,
    # theta, ThetaK, Pm/lam or a vanishing-ratio poch in R_n.
    pure = 0
    total = 0
    for ident, node in _corpus_sums():
        binding = full_binding(ident, sample_params(ident, 42, 0), 10)
        kmax = None if node.hi is dsl.INF else 8
        split = _Evaluator(binding, 10).split(node.body, node.var, {node.var: 0}, kmax)
        total += 1
        pure += not split.r
    assert (pure, total) == (16, 38)


def test_split_compiles_the_andrews_warnaar_ratio():
    a, b = Fraction(5, 8), Fraction(-3, 2)
    s = _split("sum(n, 0, inf, poch(a*b/q, 2*n) * q^n"
               " / (poch(q, n) * poch(a, n) * poch(b, n) * poch(a*b/q, n)), n)",
               {"a": a, "b": b})
    assert not s.r and s.sr == 0 and s.n_term is None
    assert [(v.coef, v.exp, i) for v, i, _ in s.num] == [(a * b, -1, 2), (a * b, 0, 2)]
    assert [(v.coef, v.exp, i) for v, i, _, _ in s.den] == [
        (1, 1, 1), (a, 0, 1), (b, 0, 1), (a * b, -1, 1)]
    assert (s.z.coef, s.z.exp) == (1, 1)


def test_split_vanishing_ratios_go_to_residual():
    # poch(q^n, n): the ratio (1-q^(2n))(1-q^(2n+1))/(1-q^n) is 0/0 at n = 0;
    # poch(q^(2-k), k) has alpha < 0.  Both stay in R_n.
    for factor in ("poch(q^n, n)", "poch(q^(2 - n), n)", "1 / poch(q^(0 - 2), n)",
                   "poch(q^(n - 3), 2)", "theta(a * q^n)", "poch(a * q^n, n, 2)"):
        s = _split("sum(n, 0, inf, q^n * %s, n)" % factor, {"a": Fraction(2)})
        assert [dsl.render(f) for f, _ in s.r] == [factor.split(" / ")[-1]]
    # (a*q^(k-1))^k and 1/poch(q, k) are H_n even beside a residual.
    s = _split("sum(k, 0, 3, poch(q^(4-k), k) * (a*q^(k-4+1))^k * Pm(4, a*q^k, b*q^k)"
               " / poch(q, k))", {"a": Fraction(2), "b": Fraction(3)}, kmax=3)
    assert [f.name for f, _ in s.r] == ["poch", "Pm"] and s.sr == 2


def test_split_terminating_multiplier_sets_n_term():
    s = _split("sum(k, 0, inf, poch(q^(0-3), k) * a^k / poch(q, k), k)", {"a": Fraction(2)})
    assert not s.r and s.n_term == 3


# -- stop rules -----------------------------------------------------------------------


def test_pure_h_short_bound_runs_to_the_derived_stop():
    # The bound 2n claims more than the terms q^n have.
    got = dsl.evaluate(parse("sum(n, 0, inf, q^n, 2*n)"), {}, 10)
    assert_eq_series(got, se.from_string(
        "1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + q^8 + q^9 + O(q^10)"), 10)
    assert got.prec == 10


def test_pure_h_divergent_body_raises_with_position():
    for text in ("sum(n, 0, inf, 1, n)", "x + sum(n, 0, inf, q^(0-binom2(n)), n)",
                 "sum(n, 0, inf, q^(0-n) * q^n, n)"):
        with pytest.raises(EvalError) as info:
            dsl.evaluate(parse(text), {"x": Fraction(1)}, 8)
        assert info.value.pos == text.index("sum")


def test_bound_violation_still_raises_for_pure_h():
    with pytest.raises(BoundViolationError):
        dsl.evaluate(parse("sum(n, 0, inf, q^n, 0*n)"), {}, 8)


def test_terminating_body_sums_to_n_term():
    # poch(q^-3, k) ends the sum at k = 3 whatever the bound says, and a
    # term ratio q^(-2k) does not make it divergent.
    a = Fraction(2, 3)
    for bound in ("k", "0*k + 99"):
        got = dsl.evaluate(parse("sum(k, 0, inf, poch(q^(0-3), k) * a^k * q^(0-k*k)"
                                 " / poch(q, k), %s)" % bound), {"a": a}, 12)
        want = dsl.evaluate(parse("sum(k, 0, 3, poch(q^(0-3), k) * a^k * q^(0-k*k)"
                                  " / poch(q, k))"), {"a": a}, 12)
        assert_eq_series(got, want, 12)
        assert got.prec == 12
    # R_n is still evaluated past the end: 1/poch(1, n) divides by zero
    # at n = 1 although poch(1, n) ends H_n there, as term by term.
    with pytest.raises(EvalError):
        dsl.evaluate(parse("sum(n, 0, inf, q^n * poch(1, n) / poch(1, n), n)"), {}, 5)


# -- agreement with the term-by-term sum ---------------------------------------------


@pytest.mark.parametrize("prec", [8, 30])
def test_corpus_sums_match_term_by_term(prec):
    for ident, node in _corpus_sums():
        binding = full_binding(ident, sample_params(ident, 42, 0), prec)
        got = dsl.evaluate(node, binding, prec)
        want = sum_by_terms(node, binding, prec)
        assert got == want, (ident.name, dsl.render(node))


_COEF = st.sampled_from(["a", "b", "2", "(0-3)", "(1/2)", "1"])
_SMALL = st.integers(0, 2)
_SHIFT = st.integers(-2, 2)


@st.composite
def _factor(draw, divisor=False):
    c, beta = draw(_COEF), draw(_SHIFT)
    # qpow, negpow and divpow grow like q^(2n) or faster, so as divisors
    # they would make the sum diverge.
    kinds = ["poch", "poch2", "cpow", "sign", "binom", "residual", "index"] + (
        [] if divisor else ["qpow", "negpow", "divpow"])
    kind = draw(st.sampled_from(kinds))
    if kind == "poch":
        return "poch(%s*q^(%d*n+%d), %d*n+%d)" % (c, draw(_SMALL), beta, draw(_SMALL), draw(_SMALL))
    if kind == "poch2":
        return "poch(%s*q^(%d*n+%d), %d*n+%d, 2)" % (
            c, draw(st.sampled_from([0, 2])), beta, draw(_SMALL), draw(_SMALL))
    if kind == "qpow":
        return "q^(%d*binom2(n)+%d*n+%d)" % (draw(_SMALL), draw(_SMALL), beta)
    if kind == "cpow":
        return "%s^(%d*n+%d)" % (draw(st.sampled_from(["a", "b", "(0-2)", "(2/3)"])),
                                 draw(st.integers(-1, 2)), draw(_SMALL))
    if kind == "sign":
        return "(-1)^n"
    if kind == "negpow":
        return "(-q^(n+%d))^2" % beta
    if kind == "divpow":
        return "(q^n/%s)^2" % c
    if kind == "index":
        return "n"
    if kind == "binom":
        return "(1 %s %s*q^(%d*n+%d))" % (draw(st.sampled_from("-+")), c, draw(st.integers(1, 2)),
                                         beta)
    return draw(st.sampled_from(["poch(q^n, n)", "poch(q^(2-n), n)", "theta(a*q^n)"]))


@st.composite
def _sum_text(draw):
    nums = draw(st.lists(_factor(), max_size=3))
    dens = draw(st.lists(_factor(divisor=True), max_size=2))
    body = "*".join(["q^n"] + nums) + ("/(%s)" % "*".join(dens) if dens else "")
    lo = draw(st.integers(0, 2))
    if draw(st.booleans()):
        return "sum(n, %d, %d, %s)" % (lo, lo + draw(st.integers(0, 5)), body)
    # q^n and the bounded dips of the other factors make n - 20 a sound bound.
    return "sum(n, %d, inf, %s, n - 20)" % (lo, body)


@settings(max_examples=60, deadline=5000)
@given(_sum_text(), st.sampled_from([1, 5, 12]),
       st.sampled_from([Fraction(-7, 3), Fraction(2, 3), Fraction(5, 3)]),
       st.sampled_from([Fraction(-3, 5), Fraction(4, 5)]))
@example("sum(n, 1, inf, q^n*(-q^(n+-2))^2*n/(poch(a*q^(1*n+0), 1*n+1)), n - 20)",
         12, Fraction(2, 3), Fraction(4, 5))
@example("sum(n, 0, 4, q^n*(q^n/b)^2*(-1)^n)", 5, Fraction(2, 3), Fraction(-3, 5))
@example("sum(n, 2, inf, q^n*(q^n/(0-3))^2/(n), n - 20)", 12, Fraction(5, 3), Fraction(4, 5))
def test_random_hypergeometric_bodies_match_term_by_term(text, prec, a, b):
    node = parse(text)
    binding = {"a": a, "b": b}
    try:
        want = sum_by_terms(node, binding, prec)
    except QThetaError:
        with pytest.raises(QThetaError):
            dsl.evaluate(node, binding, prec)
        return
    got = dsl.evaluate(node, binding, prec)
    # A finite sum is not capped, so its precision follows its factors'.
    assert_eq_series(got, want, min(prec, want.prec))
    assert got.prec >= min(prec, want.prec)


# -- order-0 prefactors start an infinite sum ------------------------------------------


_FOLD_SUMS = [
    "sum(n, 0, inf, poch(a, n) * q^n / poch(q, n), n)",
    "sum(n, 0, inf, poch(a/q^2, n) * q^n / poch(q, n), n - 2)",
    "sum(n, 0, inf, theta(a*q^n) * q^n / poch(q, n), n)",
    "sum(n, 0, inf, binom2(n+2) * q^n / poch(a, n+1), n)",
]
# A product of factors (text, divides), "S" standing for the sum.
_FOLD_PRODUCTS = [
    [("x", False), ("S", False)],
    [("S", False), ("x", False)],
    [("x", False), ("pochinf(q)", False), ("S", False)],
    [("x", False), ("S", False), ("pochinf(a)", True)],
    [("pochinf(a)", False), ("S", True), ("x", False)],
    [("2", False), ("S", False), ("S", False)],
]


def _unfolded(parts, binding, prec):
    """The product without the fold: each factor, the sum included,
    evaluated alone, then multiplied or divided in order."""
    ev = _Evaluator(binding, prec)
    v = QMonomial(Fraction(1), 0)
    for text, divides in parts:
        x = ev.value(parse(text), {})
        v = ev.div(v, x, 0) if divides else _val_mul(v, x)
    return to_series(v, prec)


def _order_k(k, prec, series):
    """A binding of order k: 3/2*q^k exact, or 3/2*q^k - q^(k+1) + O(q^(k+prec))."""
    if not series:
        return QMonomial(Fraction(3, 2), k)
    return se.add(se.monomial(Fraction(3, 2), k, k + prec), se.monomial(-1, k + 1, k + prec))


@pytest.mark.parametrize("sum_text", _FOLD_SUMS)
def test_folded_prefactor_matches_the_unfolded_product(sum_text):
    # Factors of order -2..2, exact and series bindings, pure H_n and
    # residual bodies: the fold changes no coefficient and loses no
    # precision against the sum evaluated alone and multiplied after.
    prec = 8
    for parts, k, a_series, x_series in itertools.product(
            _FOLD_PRODUCTS, range(-2, 3), (False, True), (False, True)):
        binding = {
            "a": (se.add(se.from_rational(Fraction(2, 3), prec + 6), se.monomial(1, 1, prec + 6))
                  if a_series else Fraction(2, 3)),
            "x": _order_k(k, prec + 4, x_series)}
        parts = [(sum_text if t == "S" else t, d) for t, d in parts]
        text = "".join(("/" if d else "*") * bool(i) + "(%s)" % t for i, (t, d) in enumerate(parts))
        got = dsl.evaluate(parse(text), binding, prec)
        want = _unfolded(parts, binding, prec)
        case = (text, k, a_series, x_series)
        assert se.eq_to_prec(got, want)[0], case
        assert got.prec >= want.prec, case


def test_fold_leaves_a_negative_order_factor_outside():
    # Folded, q^-3 would lower every term by 3 while the orderbound n
    # still stopped the residual sum at the tenth term: O(q^10) without
    # 45q^7 + 55q^8 + 66q^9.  Outside the sum it costs 3 orders, honestly.
    got = dsl.evaluate(parse("q^(0-3) * sum(n, 0, inf, binom2(n) * q^n, n)"), {}, 10)
    want = se.add_all([se.monomial(n * (n - 1) // 2, n - 3, got.prec) for n in range(2, got.prec + 3)],
                      se.zero(got.prec))
    assert got == want and got.prec == 7


def test_fold_leaves_a_positive_order_factor_outside():
    # Folded, q^2 would stop the sum at its order-8 term: O(q^8) after
    # the division by q^2.
    got = dsl.evaluate(parse("q^2 * sum(n, 0, inf, q^n / poch(q, n), n) / q^2"), {}, 10)
    assert got == dsl.evaluate(parse("sum(n, 0, inf, q^n / poch(q, n), n)"), {}, 10)
    assert got.prec == 10


def test_andrews_warnaar_sum_starts_at_its_prefactor(monkeypatch):
    # pochinf(q) * pochinf(a) * pochinf(b) has order 0, so it is t_0 of the
    # sum's term loop (as in sums._pfamily), not a product taken after it.
    rhs = {i.name: i for i in load_registry()}["andrews-warnaar-1.5"].rhs
    binding = {"a": Fraction(5, 8), "b": Fraction(-3, 2)}
    t0s = []
    ratio_terms = evaluator.ratio_terms
    monkeypatch.setattr(evaluator, "ratio_terms",
                        lambda num, den, z, sr, t0, *rest:
                        t0s.append(t0) or ratio_terms(num, den, z, sr, t0, *rest))
    got = dsl.evaluate(rhs, binding, 20)
    pre = dsl.evaluate(parse("pochinf(q) * pochinf(a) * pochinf(b)"), binding, 20)
    [t0] = t0s
    assert t0 == pre
    sum_node = next(_sums(rhs))
    assert se.eq_to_prec(got, se.mul(pre, dsl.evaluate(sum_node, binding, 20))) == (True, 20)


def test_fold_skips_a_factor_naming_the_index():
    # The parameter n outside the sum is not the index n inside it, so
    # pochinf(n) stays outside: the sum's t_0, which needs one order more
    # than pochinf(n) carries here, is re-evaluated with n bound to lo.
    sum_text = "sum(n, 0, inf, poch(a/q^2, n) * q^n / poch(q, n), n - 2)"
    binding = {"a": Fraction(2, 3), "n": Fraction(-5, 4)}
    got = dsl.evaluate(parse("pochinf(n) * " + sum_text), binding, 8)
    want = _unfolded([("pochinf(n)", False), (sum_text, False)], binding, 8)
    assert se.eq_to_prec(got, want)[0] and got.prec >= want.prec


@pytest.mark.xfail(strict=True, reason="theta(a*q^n) is built at the target and then "
                   "multiplied by the exact factor 1 - q^(n-2) of order -2; reaching the "
                   "target needs a demand per factor of the residual")
@pytest.mark.parametrize("prec", [12, 30])
def test_residual_with_a_negative_order_exact_factor_reaches_its_target(prec):
    got = dsl.evaluate(parse("sum(n,0,inf,(1 - q^(n-2))*theta(a*q^n)*q^n,n)"),
                       {"a": Fraction(3, 2)}, prec)
    assert got.prec == prec
