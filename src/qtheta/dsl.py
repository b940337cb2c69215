"""A small expression language for q-series identities.

Expressions mix two sorts: series-valued (parameters, q, the builtin
q-functions) and integer-valued (exponents, Pochhammer lengths, sum
limits and order bounds).  The checking pass assigns sorts before any
evaluation; an integer position containing a series-sort subexpression
is rejected, never coerced, while integers embed freely into series
positions.

Grammar (precedence ^ > unary - > * / > + -, ^ right-associative):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' exponent]        exponent := ['-'] power
    atom   := NUMBER | NAME | NAME '(' groups ')' | '(' expr ')'

Calls take comma-separated arguments; ``phi`` alone takes three
semicolon-separated groups (upper list; lower list; argument).  Infinite
``sum`` nodes must carry an integer order-bound expression in the index
variable: evaluation iterates while the bound is below the target
precision, so a sound bound makes the evaluation sound by construction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BoundViolationError,
    EvalError,
    ParseError,
    QThetaError,
    SortError,
    UnknownNameError,
)
from . import series as se
from . import sums
from .kernels import (
    QMonomial,
    bhs,
    one_minus,
    qpoch_capped,
    qpoch_infinite,
    theta_dip,
    theta_full,
    theta_partial,
    _val_mul,
    _val_neg,
)
from .series import LaurentSeries

__all__ = ["parse", "render", "evaluate", "evaluate_value", "free_params", "neg_shift",
           "Lit", "Ref", "BinOp", "Neg", "Pow", "Call", "Sum", "INF"]


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Ref:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exp: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    groups: tuple  # tuple of tuples of nodes; non-phi builtins use one group
    pos: int = field(default=-1, compare=False)

    @property
    def args(self):
        return self.groups[0]


INF = "inf"


@dataclass(frozen=True)
class Sum:
    var: str
    lo: object
    hi: object  # node, or the string INF
    body: object
    bound: object  # node or None (finite sums)
    pos: int = field(default=-1, compare=False)


# -- builtins -----------------------------------------------------------------

_Builtin = namedtuple("_Builtin", "sort args kernel guard")


def _neg_arg(o, n):
    return max(0, -min(o))


# The one table of builtins: result sort, argument sorts ("S" series, "I"
# integer, "?" optional), kernel and guard.  A series kernel takes the
# evaluated arguments and the precision as the keyword p; it looks its
# function up in the module globals at call time so that a wrapper
# installed there (bench/tracer.py) sees the call.  An integer kernel takes
# integers only.  guard(o, n) bounds the most negative q-power a call
# injects, from its arguments' q-orders o and integer estimates n.  Only
# phi (argument groups) keeps its own branch in _Evaluator.call.
_BUILTINS = {
    "theta": _Builtin("S", ("S",), lambda x, p: theta_partial(x, p),
                      lambda o, n: theta_dip(o[0])),
    "jtheta": _Builtin("S", ("S",), lambda x, p: theta_full(x, p),
                       lambda o, n: max(theta_dip(o[0]), theta_dip(1 - o[0]))),
    "poch": _Builtin("S", ("S", "I", "?I"),
                     lambda x, n, step=1, *, p: qpoch_capped(x, n, p + 16, step), _neg_arg),
    "pochinf": _Builtin("S", ("S",), lambda x, p: qpoch_infinite(x, p), _neg_arg),
    "phi": _Builtin("S", ("S", "S", "S"), lambda u, l, z, p: bhs(u, l, z, p),
                    _neg_arg),
    "Pm": _Builtin("S", ("I", "S", "S"), lambda m, a, b, p: sums.pmsum(m, a, b, p),
                   _neg_arg),
    "U": _Builtin("S", ("I", "S"), lambda m, b, p: sums.usum(m, b, p), _neg_arg),
    "V": _Builtin("S", ("I", "I", "S", "S"),
                  lambda m, n, a, b, p: sums.vsum(m, n, a, b, p), _neg_arg),
    "Q": _Builtin("S", ("I", "S"), lambda m, b, p: sums.qcap(m, b, p), _neg_arg),
    "lam": _Builtin("S", ("I", "I", "S"), lambda m, k, b, p: sums.lam(m, k, b, p),
                    _neg_arg),
    "S": _Builtin("S", ("S", "S"), lambda a, b, p: sums.ssum(a, b, p), _neg_arg),
    "Omega": _Builtin("S", ("S", "S"), lambda a, b, p: sums.omega(a, b, p),
                      lambda o, n: theta_dip(o[0])),
    "ThetaK": _Builtin("S", ("I", "S", "S"), lambda k, a, b, p: sums.thetak(k, a, b, p),
                       lambda o, n: n[0] + 1),
    "T": _Builtin("S", ("S",), lambda a, p: sums.tsum(a, p),
                  lambda o, n: theta_dip(o[0] - 1)),
    "binom2": _Builtin("I", ("I",), lambda n: n * (n - 1) // 2, lambda o, n: 0),
}
_RESERVED = set(_BUILTINS) | {"q", "inf", "sum"}


# -- lexer --------------------------------------------------------------------

_SYMBOLS = "+-*/^(),;"


def _lex(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i, text)
    toks.append(("EOF", "", n))
    return toks


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1] or "end of input"),
                             tok[2], self.text)
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op, _, pos = self.take()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op, _, pos = self.take()
            node = BinOp(op, node, self.unary(), pos)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            _, _, pos = self.take()
            return Neg(self.unary(), pos)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            node = Pow(node, self.exponent(), pos)
        return node

    def exponent(self):
        if self.peek()[0] == "-":
            _, _, pos = self.take()
            return Neg(self.exponent(), pos)
        return self.power()

    def atom(self):
        kind, textv, pos = self.take()
        if kind == "NUM":
            return Lit(int(textv), pos)
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        if kind == "NAME":
            if self.peek()[0] == "(":
                return self.call(textv, pos)
            if textv == "q" or textv == "inf":
                return Ref(textv, pos)
            if textv in _RESERVED:
                raise ParseError("builtin %r used without arguments" % textv, pos, self.text)
            if len(textv) == 1 and textv.islower():
                return Ref(textv, pos)
            raise UnknownNameError("unknown name %r" % textv, pos, self.text)
        raise ParseError("unexpected token %r" % (textv or "end of input"), pos, self.text)

    def call(self, name, pos):
        self.take("(")
        groups = [[]]
        if self.peek()[0] != ")":
            while True:
                if name == "sum" and len(groups) == 1 and not groups[0]:
                    tok = self.peek()
                    if tok[0] != "NAME":
                        raise ParseError("sum needs an index variable", tok[2], self.text)
                groups[-1].append(self.expr())
                nxt = self.peek()[0]
                if nxt == ",":
                    self.take()
                    continue
                if nxt == ";":
                    self.take()
                    groups.append([])
                    continue
                break
        self.take(")")
        if name == "sum":
            return self.make_sum(groups, pos)
        if name == "phi":
            if len(groups) != 3 or len(groups[2]) != 1 or not groups[0] or not groups[1]:
                raise ParseError("phi needs (upper list; lower list; argument)", pos, self.text)
            return Call("phi", tuple(tuple(g) for g in groups), pos)
        if len(groups) != 1:
            raise ParseError("%r does not take ';' groups" % name, pos, self.text)
        args = groups[0]
        if name not in _BUILTINS:
            raise UnknownNameError("unknown function %r" % name, pos, self.text)
        sig = _BUILTINS[name].args
        req = [s for s in sig if not s.startswith("?")]
        if not (len(req) <= len(args) <= len(sig)):
            raise ParseError(
                "%s expects %d%s argument(s), got %d"
                % (name, len(req), "" if len(req) == len(sig) else " to %d" % len(sig), len(args)),
                pos, self.text)
        return Call(name, (tuple(args),), pos)

    def make_sum(self, groups, pos):
        if len(groups) != 1:
            raise ParseError("sum does not take ';' groups", pos, self.text)
        args = groups[0]
        if not 4 <= len(args) <= 5:
            raise ParseError("sum expects (var, lo, hi, body[, orderbound])", pos, self.text)
        var = args[0]
        if not isinstance(var, Ref) or var.name == "q":
            raise ParseError("sum index must be a fresh lowercase name", pos, self.text)
        hi = args[2]
        infinite = isinstance(hi, Ref) and hi.name == "inf"
        if infinite:
            hi = INF
            if len(args) != 5:
                raise ParseError("infinite sum without an orderbound", pos, self.text)
        bound = args[4] if len(args) == 5 else None
        return Sum(var.name, args[1], hi, args[3], bound, pos)


# -- sort checking ------------------------------------------------------------


def _check(node, want, ivars, text):
    if isinstance(node, Lit):
        return
    if isinstance(node, Ref):
        if node.name == "inf":
            raise SortError("'inf' is only valid as a sum upper limit", node.pos, text)
        if node.name == "q":
            if want == "I":
                raise SortError("q in an integer position", node.pos, text)
            return
        if node.name in ivars:
            return
        if want == "I":
            raise SortError("parameter %r in an integer position" % node.name, node.pos, text)
        return
    if isinstance(node, Neg):
        _check(node.operand, want, ivars, text)
        return
    if isinstance(node, BinOp):
        if node.op == "/" and want == "I":
            raise SortError("division is not allowed in integer expressions", node.pos, text)
        _check(node.left, want, ivars, text)
        _check(node.right, want, ivars, text)
        return
    if isinstance(node, Pow):
        if want == "I":
            raise SortError("'^' is not allowed in integer expressions", node.pos, text)
        _check(node.base, "S", ivars, text)
        _check(node.exp, "I", ivars, text)
        return
    if isinstance(node, Call):
        b = _BUILTINS[node.name]
        if want == "I" and b.sort != "I":
            raise SortError("series-valued %s(...) in an integer position" % node.name,
                            node.pos, text)
        if node.name == "phi":  # one sort per ';' group
            pairs = [(arg, sort) for group, sort in zip(node.groups, b.args) for arg in group]
        else:
            pairs = zip(node.args, b.args)
        for arg, sort in pairs:
            _check(arg, sort.lstrip("?"), ivars, text)
        return
    if isinstance(node, Sum):
        if want == "I":
            raise SortError("sum(...) in an integer position", node.pos, text)
        if node.var in ivars:
            raise SortError("sum index %r shadows an enclosing index" % node.var, node.pos, text)
        _check(node.lo, "I", ivars, text)
        if node.hi is not INF:
            _check(node.hi, "I", ivars, text)
        inner = ivars | {node.var}
        _check(node.body, "S", inner, text)
        if node.bound is not None:
            _check(node.bound, "I", inner, text)
        return
    raise TypeError("unknown node %r" % (node,))


def parse(text):
    """Parse and sort-check DSL text, returning the expression tree."""
    p = _Parser(text)
    node = p.expr()
    p.take("EOF")
    _check(node, "S", frozenset(), text)
    return node


def free_params(node, bound=frozenset()):
    """Names of free single-letter parameters (excluding q and sum indices)."""
    if isinstance(node, Ref):
        return set() if node.name in bound or node.name in ("q", "inf") else {node.name}
    if isinstance(node, Lit):
        return set()
    if isinstance(node, Neg):
        return free_params(node.operand, bound)
    if isinstance(node, BinOp):
        return free_params(node.left, bound) | free_params(node.right, bound)
    if isinstance(node, Pow):
        return free_params(node.base, bound) | free_params(node.exp, bound)
    if isinstance(node, Call):
        out = set()
        for group in node.groups:
            for arg in group:
                out |= free_params(arg, bound)
        return out
    if isinstance(node, Sum):
        out = free_params(node.lo, bound)
        if node.hi is not INF:
            out |= free_params(node.hi, bound)
        inner = bound | {node.var}
        return out | free_params(node.body, inner) | (
            free_params(node.bound, inner) if node.bound is not None else set())
    raise TypeError("unknown node %r" % (node,))


def sum_indices(node):
    """All sum index names used anywhere in the tree."""
    if isinstance(node, Sum):
        return ({node.var} | sum_indices(node.lo) | sum_indices(node.body)
                | (sum_indices(node.hi) if node.hi is not INF else set())
                | (sum_indices(node.bound) if node.bound is not None else set()))
    if isinstance(node, (Lit, Ref)):
        return set()
    if isinstance(node, Neg):
        return sum_indices(node.operand)
    if isinstance(node, BinOp):
        return sum_indices(node.left) | sum_indices(node.right)
    if isinstance(node, Pow):
        return sum_indices(node.base) | sum_indices(node.exp)
    if isinstance(node, Call):
        out = set()
        for group in node.groups:
            for arg in group:
                out |= sum_indices(arg)
        return out
    raise TypeError("unknown node %r" % (node,))


# -- static guard estimate ------------------------------------------------------


def _int_est(node, ienv):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Ref):
        return ienv.get(node.name, 0)
    if isinstance(node, Neg):
        return -_int_est(node.operand, ienv)
    if isinstance(node, BinOp):
        a, b = _int_est(node.left, ienv), _int_est(node.right, ienv)
        return a + b if node.op == "+" else a - b if node.op == "-" else a * b
    if isinstance(node, Call) and _BUILTINS[node.name].sort == "I":
        return _BUILTINS[node.name].kernel(*(_int_est(a, ienv) for a in node.args))
    return 0


def _scan(node, ienv):
    """(order estimate, worst injected negative shift) for a subtree."""
    if isinstance(node, Lit):
        return 0, 0
    if isinstance(node, Ref):
        return (1, 0) if node.name == "q" else (0, 0)
    if isinstance(node, Neg):
        return _scan(node.operand, ienv)
    if isinstance(node, BinOp):
        (lo, ld), (ro, rd) = _scan(node.left, ienv), _scan(node.right, ienv)
        dip = max(ld, rd)
        if node.op == "*":
            o = lo + ro
        elif node.op == "/":
            o = lo - ro
        else:
            o = min(lo, ro)
        return o, max(dip, -o)
    if isinstance(node, Pow):
        bo, bd = _scan(node.base, ienv)
        e = _int_est(node.exp, ienv)
        o = bo * e if bo else 0
        return o, max(bd, -o)
    if isinstance(node, Sum):
        inner = dict(ienv)
        inner[node.var] = _int_est(node.lo, ienv)
        _, d = _scan(node.body, inner)
        return 0, d
    if isinstance(node, Call):
        args = [arg for group in node.groups for arg in group]
        ords, dips = zip(*(_scan(arg, ienv) for arg in args))
        guard = _BUILTINS[node.name].guard(ords, [_int_est(arg, ienv) for arg in args])
        return 0, max(max(dips), guard)
    raise TypeError("unknown node %r" % (node,))


def neg_shift(*trees):
    """Most negative q-power injected by the given expression trees.

    The verifier and ``qtheta eval`` evaluate at precision N + G with the
    guard G = 2 * neg_shift(...) + 8.
    """
    return max(_scan(tree, {})[1] for tree in trees)


# -- rendering ----------------------------------------------------------------

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node, level):
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Neg):
        s = "-" + _render(node.operand, 3)
        return "(%s)" % s if level > 3 else s
    if isinstance(node, BinOp):
        mine = _LEVEL[node.op]
        s = "%s %s %s" % (_render(node.left, mine), node.op, _render(node.right, mine + 1))
        return "(%s)" % s if level > mine else s
    if isinstance(node, Pow):
        e = node.exp
        if isinstance(e, Lit):
            es = str(e.value)
        elif isinstance(e, Ref):
            es = e.name
        else:
            es = "(%s)" % _render(e, 0)
        return "%s^%s" % (_render(node.base, 5), es)
    if isinstance(node, Call):
        return "%s(%s)" % (node.name,
                           "; ".join(", ".join(_render(a, 0) for a in g) for g in node.groups))
    if isinstance(node, Sum):
        parts = [node.var, _render(node.lo, 0),
                 "inf" if node.hi is INF else _render(node.hi, 0), _render(node.body, 0)]
        if node.bound is not None:
            parts.append(_render(node.bound, 0))
        return "sum(%s)" % ", ".join(parts)
    raise TypeError("unknown node %r" % (node,))


def render(node):
    """Canonical text for a tree; reparses to a structurally equal tree."""
    return _render(node, 0)


# -- evaluation ---------------------------------------------------------------

_ITER_SLACK = 100


def _materialize(v, prec):
    if isinstance(v, QMonomial):
        if v.coef == 0:
            return se.zero(prec)
        return se.monomial(v.coef, v.exp, max(prec, v.exp + 1))
    return v


def _mul_factors(node):
    if isinstance(node, BinOp) and node.op == "*":
        yield from _mul_factors(node.left)
        yield from _mul_factors(node.right)
    else:
        yield node


class _Evaluator:
    def __init__(self, binding, prec):
        self.binding = binding
        self.prec = prec
        self._ipoch = {}

    def run(self, node):
        return _materialize(self.value(node, {}), self.prec)

    # integer sort ------------------------------------------------------------

    def int_value(self, node, ienv):
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Ref):
            return ienv[node.name]
        if isinstance(node, Neg):
            return -self.int_value(node.operand, ienv)
        if isinstance(node, BinOp):
            a = self.int_value(node.left, ienv)
            b = self.int_value(node.right, ienv)
            return a + b if node.op == "+" else a - b if node.op == "-" else a * b
        if isinstance(node, Call) and _BUILTINS[node.name].sort == "I":
            return _BUILTINS[node.name].kernel(*(self.int_value(a, ienv) for a in node.args))
        raise EvalError("not an integer expression", getattr(node, "pos", None))

    # series sort ---------------------------------------------------------------

    def value(self, node, ienv):
        if isinstance(node, Lit):
            return QMonomial(Fraction(node.value), 0)
        if isinstance(node, Ref):
            if node.name == "q":
                return QMonomial(Fraction(1), 1)
            if node.name in ienv:
                return QMonomial(Fraction(ienv[node.name]), 0)
            try:
                v = self.binding[node.name]
            except KeyError:
                raise EvalError("unbound parameter %r" % node.name, node.pos) from None
            if isinstance(v, (LaurentSeries, QMonomial)):
                return v
            return QMonomial(Fraction(v), 0)
        if isinstance(node, Neg):
            return _val_neg(self.value(node.operand, ienv))
        if isinstance(node, BinOp):
            if node.op == "/":
                # Divide through product denominators factor by factor:
                # same field value, smaller divisions.
                v = self.value(node.left, ienv)
                for f in _mul_factors(node.right):
                    inv = self.inv_poch_cached(f, ienv, v)
                    if inv is not None:
                        v = _val_mul(v, inv)
                    else:
                        v = self.div(v, self.value(f, ienv), node.pos)
                return v
            a = self.value(node.left, ienv)
            b = self.value(node.right, ienv)
            if node.op == "*":
                return _val_mul(a, b)
            if isinstance(a, QMonomial) and isinstance(b, QMonomial):
                if a.coef == 0 or b.coef == 0 or a.exp == b.exp:
                    e = b.exp if a.coef == 0 else a.exp
                    c = a.coef + b.coef if node.op == "+" else a.coef - b.coef
                    return QMonomial(c, e)
            p = max((x.prec for x in (a, b) if isinstance(x, LaurentSeries)),
                    default=self.prec)
            sa, sb = _materialize(a, p), _materialize(b, p)
            return se.add(sa, sb) if node.op == "+" else se.sub(sa, sb)
        if isinstance(node, Pow):
            n = self.int_value(node.exp, ienv)
            v = self.value(node.base, ienv)
            if isinstance(v, QMonomial):
                if v.coef == 0:
                    if n < 0:
                        raise EvalError("zero raised to a negative power", node.pos)
                    return QMonomial(Fraction(1), 0) if n == 0 else v
                return QMonomial(v.coef ** n, v.exp * n)
            try:
                return se.pow_int(v, n)
            except QThetaError as exc:
                raise EvalError(str(exc), node.pos) from exc
        if isinstance(node, Call):
            return self.call(node, ienv)
        if isinstance(node, Sum):
            return self.sum(node, ienv)
        raise TypeError("unknown node %r" % (node,))

    def div(self, a, b, pos):
        if isinstance(b, QMonomial):
            if b.coef == 0:
                raise EvalError("division by zero", pos)
            if isinstance(a, QMonomial):
                return QMonomial(a.coef / b.coef, a.exp - b.exp)
            return se.mul_monomial(a, 1 / b.coef, -b.exp)
        try:
            if isinstance(a, QMonomial):
                return se.mul_monomial(se.invert(b), a.coef, a.exp) if a.coef \
                    else QMonomial(Fraction(0), 0)
            return se.divide(a, b)
        except QThetaError as exc:
            raise EvalError(str(exc), pos) from exc

    def call(self, node, ienv):
        b = _BUILTINS[node.name]
        if b.sort == "I":
            return QMonomial(Fraction(self.int_value(node, ienv)), 0)
        try:
            if node.name == "phi":
                upper, lower, (z,) = ([self.value(x, ienv) for x in g] for g in node.groups)
                return b.kernel(upper, lower, z, p=self.prec)
            return b.kernel(*self.args(node, ienv), p=self.prec)
        except EvalError:
            raise
        except QThetaError as exc:
            raise EvalError(str(exc), node.pos) from exc

    def args(self, node, ienv):
        """The evaluated arguments of a single-group call, each in its sort."""
        return [self.int_value(a, ienv) if sort.endswith("I") else self.value(a, ienv)
                for a, sort in zip(node.args, _BUILTINS[node.name].args)]

    def inv_poch_cached(self, node, ienv, dividend):
        """Inverse of a poch(...) divisor, extended one factor at a time as
        a sum index climbs; returns None when the plain division is better."""
        if not (isinstance(node, Call) and node.name == "poch"):
            return None
        xv, n, *rest = self.args(node, ienv)
        step = rest[0] if rest else 1
        if not isinstance(xv, QMonomial):
            return None
        p = self.prec + 8
        d_ord = dividend._ord() if isinstance(dividend, LaurentSeries) else dividend.exp
        if d_ord < -6:
            return None
        try:
            ent = self._ipoch.get(id(node))
            if ent is not None and ent[0] == xv and ent[1] == step and ent[2] <= n <= ent[2] + 8:
                val = ent[3]
                for i in range(ent[2], n):
                    val = se.divide(val, one_minus(xv, step * i, val.prec + 2))
            else:
                val = se.invert(qpoch_capped(xv, n, p + 2 * max(0, -xv.exp), step))
        except QThetaError as exc:
            raise EvalError(str(exc), node.pos) from exc
        self._ipoch[id(node)] = (xv, step, n, val)
        return val

    def sum(self, node, ienv):
        lo = self.int_value(node.lo, ienv)
        prec = self.prec
        acc = None
        if node.hi is not INF:
            hi = self.int_value(node.hi, ienv)
            for i in range(lo, hi + 1):
                inner = dict(ienv)
                inner[node.var] = i
                term = _materialize(self.value(node.body, inner), prec)
                acc = term if acc is None else se.add(acc, term)
            return acc if acc is not None else se.zero(prec)
        limit = 10 * prec + _ITER_SLACK
        i = lo
        while True:
            inner = dict(ienv)
            inner[node.var] = i
            if self.int_value(node.bound, inner) >= prec:
                break
            if i - lo > limit:
                raise BoundViolationError(
                    "orderbound below %d after %d iterations" % (prec, limit), node.pos)
            term = _materialize(self.value(node.body, inner), prec)
            acc = term if acc is None else se.add(acc, term)
            i += 1
        return se.cap(acc, prec) if acc is not None else se.zero(prec)


def evaluate(ast, binding, prec):
    """Evaluate to a LaurentSeries at target precision ``prec``."""
    return _Evaluator(binding, prec).run(ast)


def evaluate_value(ast, binding, prec):
    """Like evaluate, but keeps exact monomials exact (QMonomial)."""
    return _Evaluator(binding, prec).value(ast, {})
