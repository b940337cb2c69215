"""DSL: parsing, sorts, rendering round trips, evaluation, native agreement."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qtheta import series as se
from qtheta import dsl
from qtheta.dsl import BinOp, Call, Lit, Neg, Pow, Ref, Sum, INF, parse, render
from qtheta.errors import (
    BoundViolationError,
    EvalError,
    ParseError,
    SortError,
    UnknownNameError,
)
from qtheta.identities import load_registry
from qtheta.kernels import bhs, qpoch_finite, qpoch_infinite, theta_full, theta_partial
from qtheta.sums import lam, omega, pmsum, qcap, ssum, thetak, tsum, usum, vsum

from helpers import assert_eq_series, qmon, rand_fraction


# -- parsing --------------------------------------------------------------------


def test_parse_product_of_calls():
    node = parse("theta(a)*theta(b)")
    assert node == BinOp("*", Call("theta", ((Ref("a"),),)),
                         Call("theta", ((Ref("b"),),)))


def test_parse_partial_theta_sum():
    node = parse("sum(n,0,inf, (-1)^n * q^binom2(n) * a^n, binom2(n))")
    assert isinstance(node, Sum)
    assert node.var == "n" and node.hi is INF and node.bound is not None


def test_parse_precedence():
    assert parse("a + b*c") == BinOp("+", Ref("a"), BinOp("*", Ref("b"), Ref("c")))
    # '^' binds tighter than unary minus; exponents may carry a sign
    assert parse("-a^2") == Neg(Pow(Ref("a"), Lit(2)))
    assert parse("q^-2") == Pow(Ref("q"), Neg(Lit(2)))
    assert parse("a - b - c") == BinOp("-", BinOp("-", Ref("a"), Ref("b")), Ref("c"))
    # '^' associates rightward syntactically, but a nested '^' lands in an
    # integer position and integer expressions do not admit powers
    with pytest.raises(SortError):
        parse("a^2^3")


def test_parse_phi_groups():
    node = parse("phi(a, b; c; q)")
    assert node.name == "phi" and len(node.groups) == 3


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("theta(a")
    with pytest.raises(ParseError):
        parse("1 +")
    with pytest.raises(UnknownNameError):
        parse("foo(a)")
    with pytest.raises(UnknownNameError):
        parse("ab + 1")
    with pytest.raises(ParseError):
        parse("1 $ 2")


def test_parse_negative_poch_length_is_syntactic():
    node = parse("poch(a, -1)")  # accepted at parse time
    with pytest.raises(EvalError):
        dsl.evaluate(node, {"a": Fraction(2)}, 8)


def test_infinite_sum_requires_orderbound():
    with pytest.raises(ParseError):
        parse("sum(n, 0, inf, a^n)")


def test_sort_errors():
    with pytest.raises(SortError):
        parse("q^a")  # parameter in integer position
    with pytest.raises(SortError):
        parse("q^(1/2)")  # division in integer expression
    with pytest.raises(SortError):
        parse("poch(a, theta(b))")  # series-valued call in integer position
    with pytest.raises(SortError):
        parse("q^(n^2)")  # '^' not allowed inside integer expressions
    with pytest.raises(SortError):
        parse("sum(n, 0, 3, sum(n, 0, 3, a))")  # shadowed index
    with pytest.raises(SortError):
        parse("inf + 1")


# -- rendering -----------------------------------------------------------------------


def test_render_round_trip_simple():
    for text in (
        "theta(a)*theta(b)",
        "sum(n,0,inf,(-1)^n*q^binom2(n)*a^n,binom2(n))",
        "-(a-b)/(q*a*b) * S(a,b)",
        "phi(a, q*s, -q*s, b, c, q^-3 ; s, -s, a*q/b ; a*q^4/(b*c))",
        "1 - (a/q)*theta(a)",
        "a - (b - c)",
        "(a+b)^3 * q^-4",
    ):
        node = parse(text)
        assert parse(render(node)) == node


def test_render_round_trip_whole_corpus():
    for ident in load_registry():
        for tree in (ident.lhs, ident.rhs) + tuple(ast for _, ast in ident.derives):
            assert parse(render(tree)) == tree


# -- evaluation -----------------------------------------------------------------------


def test_eval_geometric():
    got = dsl.evaluate(parse("1/(1-q)"), {}, 4)
    assert str(got) == "1 + q + q^2 + q^3 + O(q^4)"


def test_eval_theta_sum_at_zero():
    node = parse("sum(n,0,inf, (-1)^n * q^binom2(n) * a^n, binom2(n))")
    got = dsl.evaluate(node, {"a": Fraction(0)}, 10)
    assert_eq_series(got, se.one(10), 10)


def test_eval_theorem_12():
    node = parse("theta(a) - (Pm(2,a,b) + b*Pm(2, a*q, b*q))")
    got = dsl.evaluate(node, {"a": Fraction(2), "b": Fraction(3)}, 25)
    assert got.is_zero and got.prec >= 25


def test_eval_unbound_parameter():
    with pytest.raises(EvalError):
        dsl.evaluate(parse("theta(a)"), {}, 8)


def test_eval_division_by_zero_series():
    with pytest.raises(EvalError):
        dsl.evaluate(parse("1/(a-2)"), {"a": Fraction(2)}, 8)


def test_eval_bound_violation():
    node = parse("sum(n, 0, inf, q^n, 0*n)")
    with pytest.raises(BoundViolationError):
        dsl.evaluate(node, {}, 8)


def test_eval_finite_sum_no_bound_needed():
    got = dsl.evaluate(parse("sum(k, 0, 3, q^k)"), {}, 9)
    assert_eq_series(got, se.from_string("1 + q + q^2 + q^3 + O(q^9)"), 9)


def test_eval_empty_finite_sum():
    got = dsl.evaluate(parse("sum(k, 2, 1, q^k)"), {}, 6)
    assert got.is_zero


# -- DSL / native agreement for every builtin --------------------------------------------


def _agree(text, binding, native, prec=14, rounds=3, seed=101):
    rng = random.Random(seed)
    node = parse(text)
    for _ in range(rounds):
        bound = {k: (v if v is not None else rand_fraction(rng))
                 for k, v in binding.items()}
        got = dsl.evaluate(node, bound, prec)
        want = native(bound, prec)
        assert_eq_series(got, want, min(prec, got.prec, want.prec))


def test_agree_theta():
    _agree("sum(n,0,inf,(-1)^n*q^binom2(n)*a^n,binom2(n))", {"a": None},
           lambda b, p: theta_partial(b["a"], p))


def test_agree_jtheta():
    _agree("theta(a) + theta(q/a) - 1", {"a": None},
           lambda b, p: theta_full(b["a"], p))


def test_agree_poch():
    _agree("(1-a)*(1-a*q)*(1-a*q^2)", {"a": None},
           lambda b, p: qpoch_finite(b["a"], 3, p))
    _agree("(1-a)*(1-a*q^2)*(1-a*q^4)", {"a": None},
           lambda b, p: qpoch_finite(b["a"], 3, p, step=2))


def test_agree_pochinf():
    _agree("poch(a, 20)", {"a": None},
           lambda b, p: qpoch_infinite(b["a"], p), prec=14)


def test_agree_phi():
    # 2phi1 with terminating upper parameter q^-3
    _agree(
        "sum(k, 0, 3, poch(q^-3,k)*poch(b,k)/(poch(q,k)*poch(c,k))*z^k)",
        {"b": None, "c": None, "z": None},
        lambda b, p: bhs([qmon(1, -3), b["b"]], [b["c"]], b["z"], p),
    )


def test_agree_pm():
    _agree(
        "pochinf(q)*pochinf(a)*pochinf(b)"
        "*sum(n,0,inf, poch(a*b/q^2, 2*n)*q^n"
        "/(poch(q,n)*poch(a,n)*poch(b,n)*poch(a*b/q^2,n)), n - 3)",
        {"a": None, "b": None},
        lambda b, p: pmsum(2, b["a"], b["b"], p),
    )


def test_agree_u():
    _agree("sum(k,0,inf,(1 - b*q^(2*k))*b^(2*k)*q^(2*k*k - k), 2*k*k - k)",
           {"b": None}, lambda b, p: usum(0, b["b"], p))
    _agree(
        "sum(k,0,1, poch(q^-1,k)*(1 - b*q^(2*k))*b^(2*k)*q^(2*k*k - k + 2*k)"
        "/(poch(q,k)*poch(b*q^k, 2)))",
        {"b": None}, lambda b, p: usum(2, b["b"], p),
    )


def test_agree_v():
    _agree(
        "sum(k, 0, 2, poch(q^-2,k)*poch(q^-3,k)*(b*q^5)^k"
        "/(poch(q,k)*poch(a*b*q^2,k)))",
        {"a": None, "b": None},
        lambda b, p: vsum(2, 3, b["a"], b["b"], p),
    )


def test_agree_q():
    _agree(
        "sum(i,0,2, poch(q^-2,i)*(1 - b*q^(2*i))*b^(2*i)*q^(2*i*i + 2*i)"
        "/(poch(q,i)*poch(b*q^i,3)))",
        {"b": None}, lambda b, p: qcap(4, b["b"], p),
    )


def test_agree_lam():
    _agree("poch(q^2, 1)*(b*q^-1)^1/(poch(q,1)*Q(3, b*q^-2))",
           {"b": None}, lambda b, p: lam(3, 1, b["b"], p))


def test_agree_s():
    _agree(
        "pochinf(q)*pochinf(a)*pochinf(b)"
        "*sum(n,0,inf, poch(a*b/q^3, 2*n)*q^(2*n)"
        "/(poch(q,n)*poch(a,n)*poch(b,n)*poch(a*b/q^3,n)), 2*n - 6)",
        {"a": None, "b": None},
        lambda b, p: ssum(b["a"], b["b"], p),
    )


def test_agree_omega():
    _agree("sum(n,0,inf,(-1)^n*q^binom2(n)*b^n*theta(a*q^n),binom2(n))",
           {"a": None, "b": None},
           lambda b, p: omega(b["a"], b["b"], p))


def test_agree_thetak():
    _agree(
        "(b*(1+a*q^3)/(a*(1+q)))*theta(b*q^4) - (a*(1+b*q^3)/(b*(1+q)))*theta(a*q^4)"
        " + ((1+a*q^2)/((a+b)*q^3))*theta(b*q^3) - ((1+b*q^2)/((a+b)*q^3))*theta(a*q^3)",
        {"a": None, "b": None},
        lambda b, p: thetak(2, b["a"], b["b"], p),
    )


def test_agree_t():
    _agree(
        "((a - a^2 + a*q - q^2)/(1+q+q^2))*theta(a)"
        " + ((a*q - a^2 + a*q^2 - q^4)/(a*q))*theta(a/q)",
        {"a": None}, lambda b, p: tsum(b["a"], p),
    )


def test_agree_binom2():
    got = dsl.evaluate(parse("q^binom2(5)"), {}, 12)
    assert got.order() == 10
    assert str(dsl.evaluate(parse("binom2(4)*q"), {}, 5)) == "6*q + O(q^5)"


# -- static guard estimate and the builtin table ----------------------------------


NEG_SHIFT = {
    "theta(a/q^3)": 6,
    "jtheta(a*q^5)": 10,
    "jtheta(a/q^2)": 3,
    "Omega(a/q^2,b)": 3,
    "T(a)": 1,
    "ThetaK(2,a,b)": 3,
    "Pm(2,a/q,b)": 1,
    "S(a/q^2,b)": 2,
    "U(3,b/q^2)": 2,
    "V(1,2,a/q^3,b)": 3,
    "Q(3,b/q^2)": 2,
    "lam(3,1,b/q)": 1,
    "poch(a/q^2,3)": 2,
    "pochinf(a/q^4)": 4,
    "phi(a/q; b; q)": 1,
    "q^(0-5)": 5,
    "binom2(3)*q": 0,
}


def test_neg_shift_one_case_per_builtin():
    got = {text: dsl.neg_shift(parse(text)) for text in NEG_SHIFT}
    assert got == NEG_SHIFT
    assert set(dsl._BUILTINS) <= {re.match(r"\w+", text).group() for text in NEG_SHIFT}


def test_readme_builtins_block_mirrors_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Builtins", 1)[1].split("```")[1]
    assert "q" in block.split()
    assert set(re.findall(r"([A-Za-z]\w*)\(", block)) == set(dsl._BUILTINS) | {"sum"}
