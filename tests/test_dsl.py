"""DSL: parsing, sorts, rendering round trips, evaluation, native agreement."""

import collections
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qtheta import series as se
from qtheta import dsl, sums
from qtheta.dsl import BinOp, Call, Lit, Neg, Pow, Ref, Sum, INF, parse, render
from qtheta.evaluator import _Evaluator
from qtheta.errors import (
    BoundViolationError,
    EvalError,
    ParseError,
    QThetaError,
    SortError,
    UnknownNameError,
)
from qtheta.identities import load_registry
from qtheta.kernels import (QMonomial, _val_mul, bhs, qpoch_finite, qpoch_infinite,
                            theta_full, theta_partial)
from qtheta.sums import lam, omega, pmsum, qcap, ssum, thetak, tsum, usum, vsum
from qtheta.verifier import max_neg_shift

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


def test_lexer_reads_ascii_only():
    # str.isdigit, isalpha and isspace accept these characters; the lexer
    # takes ASCII names, digits and blanks only, so each is a ParseError
    # at its character.
    for text, pos in (("q^\u00b2", 2), ("\u0663*q", 0), ("th\u00e9ta(a)", 2),
                      ("q +\u00a01", 3)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is ParseError and exc.value.pos == pos, text


def test_identity_file_tokens_are_not_expressions():
    # Strings, ':=' and '.' lex for identity files; no expression takes them.
    for text, pos in (('theta("a")', 6), ("a := 1", 2), ("1.5*q", 1)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == pos, text


@pytest.mark.parametrize("text, error, pos", [
    ("theta + 1", ParseError, 0),  # a builtin without arguments
    ("sum(1, 0, 3, q)", ParseError, 4),  # a sum without an index
    ("phi(a; b)", ParseError, 0),  # a phi call with two groups
    ("phi(a; b; c; d)", ParseError, 3),  # a fourth phi group, at the '('
    ("theta(a; b)", ParseError, 5),  # ';' groups on a non-phi call, at the '('
    ("theta(a, b)", ParseError, 0),  # a wrong argument count
    ("sum(n, 0, 3)", ParseError, 0),  # a wrong sum argument count
    ("sum(q, 0, 3, q)", ParseError, 0),  # a bad sum index
    ("poch(a, q)", SortError, 8),  # q in an integer position
    ("poch(a, sum(n, 0, 3, n))", SortError, 8),  # a sum in an integer position
])
def test_parse_error_branches(text, error, pos):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error and exc.value.pos == pos


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
    assert got == se.zero(6)


def test_eval_sum_without_terms_is_zero_to_target():
    # An exact zero H_lo leaves no terms to add.
    for text in ("sum(k, 0, 3, a*q^k)", "sum(n, 0, inf, a*q^n, n)"):
        assert dsl.evaluate(parse(text), {"a": Fraction(0)}, 6) == se.zero(6)


# -- one product path -------------------------------------------------------------------


def _flat_factors(node, div_pos=None):
    """The leaves of a '*'/'/' tree, each with the '/' that divides by it."""
    if isinstance(node, BinOp) and node.op in "*/":
        yield from _flat_factors(node.left, div_pos)
        if node.op == "/":
            div_pos = node.pos if div_pos is None else None
        yield from _flat_factors(node.right, div_pos)
    else:
        yield node, div_pos


def _pairwise(ev, node):
    """The pairwise reference for a '*'/'/' tree: a '*' node multiplies its
    two evaluated sides, and a tree whose root is '/' goes factor by factor
    through its flattened factors."""
    if isinstance(node, BinOp) and node.op == "*":
        return _val_mul(_pairwise(ev, node.left), _pairwise(ev, node.right))
    if isinstance(node, BinOp) and node.op == "/":
        v = qmon(1)
        for f, div_pos in _flat_factors(node):
            x = ev.value(f, {})
            v = _val_mul(v, x) if div_pos is None else ev.div(v, x, div_pos)
        return v
    return ev.value(node, {})


def _outcome(run):
    try:
        return run()
    except QThetaError as exc:
        return type(exc), str(exc)


def _zero_divisor(outcome):
    return (isinstance(outcome, tuple) and outcome[0] is EvalError
            and "a series that is zero to" in outcome[1])


def test_products_regroup_without_changing_the_value():
    # Every grouping of three factors is one left-to-right product.  Against
    # the pairwise evaluation it gives the same value and precision, also
    # with zero-to-precision factors, except where the pairwise results
    # themselves depended on the grouping: the wording of a zero-divisor
    # error.  An exact zero quotient 0/(c*q^e) has exponent 0 either way.
    def series(k, p):
        return se.add(se.monomial(Fraction(3, 2), k, k + p), se.monomial(-1, k + 1, k + p))

    values = [qmon(Fraction(3, 2), -1), qmon(-2, 2), qmon(0), series(0, 5), series(-2, 4),
              series(1, 7), se.zero(3), se.zero(-1)]
    kinds = collections.Counter()
    for (o1, o2), shape in itertools.product(itertools.product("*/", repeat=2),
                                             ("(x %s y) %s z", "x %s (y %s z)")):
        node = parse(shape % (o1, o2))
        for x, y, z in itertools.product(values, repeat=3):
            binding = {"x": x, "y": y, "z": z}
            got = _outcome(lambda: _Evaluator(binding, 6).value(node, {}))
            want = _outcome(lambda: _pairwise(_Evaluator(binding, 6), node))
            case = (render(node), x, y, z, got, want)
            if got == want:
                kinds["same"] += 1
            else:
                assert _zero_divisor(got) and _zero_divisor(want), case
                kinds["error wording"] += 1
    assert kinds == {"same": 4066, "error wording": 30}


def test_zero_dividend_does_not_hide_a_zero_divisor():
    # theta(a) - theta(a) is zero to precision; dividing 0 by it raises as
    # dividing 1 by it does, at the same '/'.
    binding = {"a": Fraction(2)}
    for text in ("0/(theta(a)-theta(a))", "1/(theta(a)-theta(a))"):
        with pytest.raises(EvalError) as exc:
            dsl.evaluate(parse(text), binding, 8)
        assert exc.value.pos == 1
        assert "inversion of a series that is zero to O(q^8)" in str(exc.value)


def test_zero_products_of_exact_monomials_carry_no_exponent():
    # A zero product has exponent 0 however it was built, so a term made
    # from it has the precision of a zero times a series.
    assert _val_mul(qmon(0, -1), qmon(0, 2)) == qmon(0)
    assert _val_mul(qmon(3, 4), qmon(0, -2)) == qmon(0)
    assert _val_mul(qmon(0, -1), se.one(5)) == qmon(0)
    assert _Evaluator({}, 5).div(qmon(0, -1), qmon(3, 2), 0) == qmon(0)


# -- one kernel run per builtin call and evaluation ------------------------------------


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name."""
    seen = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_cor22_lhs_runs_each_pm_once(monkeypatch):
    # Both k-sums of corollary 2.2's left-hand side call Pm(3, a*q^k, b*q^k)
    # for k = 0, 1, 2: the first sum makes all three from one family call,
    # and the second finds them in the memo.
    lhs = {i.name: i for i in load_registry()}["cor2.2-3"].lhs
    binding = {"a": Fraction(2, 3), "b": Fraction(-3, 5)}
    family = _count_calls(monkeypatch, sums, "pmfamily")
    got = dsl.evaluate(lhs, binding, 20)
    assert family == [(3, qmon(Fraction(2, 3)), qmon(Fraction(-3, 5)), 3, 20)]
    factors = [dsl.evaluate(side, binding, 20) for side in (lhs.left, lhs.right)]
    assert len(family) == 3
    assert got == se.mul(*factors)


def test_cor22_lhs_makes_one_family_call_and_no_pm_call(monkeypatch):
    # cor2.2-4 calls Pm(4, a*q^k, b*q^k) for k = 0..3 in each k-sum.
    lhs = {i.name: i for i in load_registry()}["cor2.2-4"].lhs
    binding = {"a": Fraction(-7, 3), "b": Fraction(5, 8)}
    family = _count_calls(monkeypatch, sums, "pmfamily")
    direct = _count_calls(monkeypatch, sums, "pmsum")
    got = dsl.evaluate(lhs, binding, 24)
    assert len(family) == 1 and direct == []
    want = se.mul(*(sum(_Evaluator(binding, 24).value(f, {"k": k}) for k in range(4))
                    for f in (lhs.left.body, lhs.right.body)))
    assert got == se.cap(want, 24)


def test_degenerate_family_leaves_the_per_call_error(monkeypatch):
    # Member 0 of each family is degenerate: (a;q)_n at a = q^-2, and
    # (ab/q^2;q)_n at ab = q^-1.  The family call raises and stores nothing,
    # so the first call raises as it does without the family, at its own
    # position, also as a divisor after another factor.
    family = _count_calls(monkeypatch, sums, "pmfamily")
    binding = {"a": Fraction(1), "b": Fraction(3, 2)}
    cases = [
        ("sum(k, 0, 3, Pm(2, a*q^(k-2), b*q^k) * theta(a*q^k))",
         "Pm: (a;q)_n: factor 1 - q^0 vanishes in (1*q^-2;q)_inf", 13),
        ("sum(k, 0, 3, theta(b*q^k) / Pm(2, a*b*q^k, q^(k-1)/b))",
         "Pm: (ab/q^2;q)_n: factor 1 - q^0 vanishes in (1*q^-3;q)_inf", 28),
    ]
    for text, message, pos in cases:
        with pytest.raises(EvalError) as exc:
            dsl.evaluate(parse(text), binding, 10)
        assert str(exc.value) == "%s (at offset %d)" % (message, pos)
        assert exc.value.pos == pos
    # Per case: the family of four, then pmsum's own family of one at k = 0.
    assert [args[3] for args in family] == [4, 1, 4, 1]


def test_equal_phi_calls_run_bhs_once(monkeypatch):
    seen = _count_calls(monkeypatch, dsl, "bhs")
    binding = {"a": Fraction(2), "b": Fraction(3), "c": Fraction(5)}
    got = dsl.evaluate(parse("phi(a, b; c; q) * phi(a, b; c; q)"), binding, 12)
    assert len(seen) == 1
    one = bhs([qmon(2), qmon(3)], [qmon(5)], qmon(1, 1), 12)
    assert got == se.mul(one, one)


def test_residual_call_runs_once_per_index(monkeypatch):
    # theta(a*q^n) sits in R_n, so each index has its own arguments.
    seen = _count_calls(monkeypatch, dsl, "theta_partial")
    dsl.evaluate(parse("sum(n, 0, inf, theta(a*q^n) * q^(n*n), n*n)"), {"a": Fraction(2)}, 16)
    assert [x for x, _ in seen] == [qmon(2, n) for n in range(4)]


def test_calls_with_other_arguments_stay_apart():
    got = dsl.evaluate(parse("theta(a) - theta(b)"), {"a": Fraction(2), "b": Fraction(3)}, 15)
    assert got == se.sub(theta_partial(Fraction(2), 15), theta_partial(Fraction(3), 15))
    assert not got.is_zero


def test_calls_on_series_of_other_precision_stay_apart():
    # Equal coefficients, different precision: theta's result keeps the
    # lower one, so the sum's precision depends on which call is which.
    low = se.from_string("2 + q + O(q^8)")
    high = se.from_string("2 + q + O(q^30)")
    assert list(low.terms()) == list(high.terms()) and low != high
    node = parse("theta(a) + theta(b)")
    for a, b in ((low, high), (high, low)):
        got = dsl.evaluate(node, {"a": a, "b": b}, 20)
        assert got == se.add(theta_partial(a, 20), theta_partial(b, 20))
        assert got.prec == 8


def test_start_reevaluates_with_its_own_calls():
    # t_0 = theta(a)*q^-2 falls short at prec 20, so start re-evaluates it
    # at a higher precision; a theta(a) run at prec 20 must not answer there.
    got = dsl.evaluate(parse("sum(n, 0, inf, theta(a) * q^(n*n - 3*n), n*n - 3*n)"),
                       {"a": Fraction(2)}, 20)
    assert got.prec == 20


def test_failing_call_raises_at_its_position_every_time():
    node = parse("theta(a) + poch(a, -1)")
    ev = _Evaluator({"a": Fraction(2)}, 8)
    for _ in range(2):
        with pytest.raises(EvalError) as info:
            ev.run(node)
        assert info.value.pos == 11
    assert [name for name, _ in ev.memo] == ["theta"]
    with pytest.raises(EvalError) as info:
        dsl.evaluate(parse("poch(a, -1) * theta(a) + poch(a, -1)"), {"a": Fraction(2)}, 8)
    assert info.value.pos == 0



def test_equal_arguments_built_different_ways_share_one_memo_entry():
    # A literal, a binding and a product that cancels give equal monomials.
    ev = _Evaluator({"a": Fraction(2)}, 8)
    got = ev.run(parse("theta(2) + theta(a) + theta(a*q/q)"))
    assert [name for name, _ in ev.memo] == ["theta"]
    assert got == 3 * theta_partial(2, 8)


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
    "T(a)": 2,
    "ThetaK(2,a,b)": 3,
    "Pm(2,a/q,b)": 1,
    "S(a/q^2,b)": 2,
    "U(3,b/q^2)": 2,
    "U(0,3/q^4)": 10,
    "U(4,3/q^7)": 12,
    "U(3,1/q^5)": 6,
    "theta(3/q^4)^5": 50,
    "V(1,2,a/q^3,b)": 3,
    "Q(3,b/q^2)": 2,
    "Q(5,3/q^9)": 18,
    "lam(3,1,b/q)": 1,
    "poch(a/q^2,3)": 2,
    "pochinf(a/q^4)": 10,
    "phi(a/q; b; q)": 1,
    "q^(0-5)": 5,
    "binom2(3)*q": 0,
}


def test_neg_shift_one_case_per_builtin():
    got = {text: dsl.neg_shift(parse(text)) for text in NEG_SHIFT}
    assert got == NEG_SHIFT
    assert set(dsl._BUILTINS) <= {re.match(r"\w+", text).group() for text in NEG_SHIFT}


def test_pochinf_guard_covers_its_dip():
    # Euler's sum for (x;q)_inf dips as theta(x) does: to q^-21 at ord(x) = -6,
    # so a product of two such calls still reaches its order.
    tree = parse("pochinf(3/q^6)*pochinf(3/q^6)")
    got = dsl.evaluate(tree, {}, 6 + 2 * dsl.neg_shift(tree) + 8)
    assert got.prec >= 6


def test_pochinf_guard_leaves_corpus_guards(monkeypatch):
    # Every corpus pochinf argument has order >= 0, where the dip is 0.
    registry = load_registry()
    got = [max_neg_shift(ident) for ident in registry]
    row = dsl._BUILTINS["pochinf"]
    monkeypatch.setitem(dsl._BUILTINS, "pochinf", row._replace(guard=dsl._neg_arg))
    assert [max_neg_shift(ident) for ident in registry] == got
    assert len(got) == 48


def test_thetak_guard_covers_its_order():
    # The guard is sums.thetak_dip of the argument orders, not k + 1:
    # ThetaK(0, 3/2*q, -5/7/q^4) has order -8.
    guard = dsl._BUILTINS["ThetaK"].guard
    slack = [guard((0, ea, eb), [k, 0, 0])
             + thetak(k, qmon(Fraction(3, 2), ea), qmon(Fraction(-5, 7), eb), 4)._ord()
             for k in range(4) for ea in range(-6, 4) for eb in range(-6, 4)]
    assert min(slack) == 0
    assert dsl.neg_shift(parse("ThetaK(0, 3/2*q, -5/7/q^4)")) == 8


def test_thetak_guard_leaves_corpus_guards(monkeypatch):
    # Every corpus ThetaK argument has order 0, where the dip is k + 1.
    registry = load_registry()
    got = [max_neg_shift(ident) for ident in registry]
    row = dsl._BUILTINS["ThetaK"]
    monkeypatch.setitem(dsl._BUILTINS, "ThetaK", row._replace(guard=lambda o, n: n[0] + 1))
    assert [max_neg_shift(ident) for ident in registry] == got


# Integer arguments for each series builtin in the guard grid below.
_GRID_INTS = {"poch": [(3,), (5,), (3, 2)], "Pm": [(2,), (3,)], "U": [(0,), (1,), (3,)],
              "V": [(1, 2), (2, 2)], "Q": [(2,), (4,)], "lam": [(3, 0), (3, 2)],
              "ThetaK": [(0,), (2,)]}
# Rows that undercount -ord at some order in -8..4 (FOUND in CHANGES.md):
# P_3(a, b) already has order -1 at arguments of order 0, where the Pm row
# says 0, so a derived row would move the deep workload's guards.
_LOW_ROWS = {"poch": "(x;q^s)_n has order sum_i min(0, ord x + s*i)",
             "Pm": "P_3(a, b) has order -1 at order-0 arguments",
             "V": "V(1, 2, a*q, b/q^3) has order -4 against 3",
             "S": "S(a/q^3, b) has order -6 against 3",
             "Omega": "Omega(a, b/q) has order -1 against 0",
             "phi": "phi(a; b; z/q^3) has order -6 against 3"}


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.xfail(strict=True, reason=_LOW_ROWS[n])) if n in _LOW_ROWS
    else n for n in sorted(n for n, b in dsl._BUILTINS.items() if b.sort == "S")])
def test_guard_row_bounds_the_kernel_order(name):
    # The row bounds -ord of the kernel's result, for exact arguments
    # c*q^d with d in -8..4 (T's row is sums.t_dip: T(3/2) has order -2).
    row = dsl._BUILTINS[name]
    sig = [s.lstrip("?") for s in row.args]
    nser = sig.count("S")
    slack = []
    for ints in _GRID_INTS.get(name, [()]):
        for ords in itertools.product(range(-8, 5), repeat=nser):
            vals = iter(QMonomial(c, d) for c, d in zip(itertools.cycle(
                (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 9))), ords))
            ivals = iter(ints)
            args, o, n = [], [], []
            for s in sig[:len(ints) + nser]:
                x = next(ivals) if s == "I" else next(vals)
                args.append((x,) if name == "phi" else x)
                o.append(0 if s == "I" else x.exp)
                n.append(x if s == "I" else None)
            try:
                got = row.kernel(*args, p=4)
            except QThetaError:
                continue
            slack.append(row.guard(o, n) + got._ord())
    assert slack and min(slack) >= 0


def test_readme_builtins_block_mirrors_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Builtins", 1)[1].split("```")[1]
    assert "q" in block.split()
    assert set(re.findall(r"([A-Za-z]\w*)\(", block)) == set(dsl._BUILTINS) | {"sum"}
