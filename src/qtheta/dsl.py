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
semicolon-separated groups (upper list; lower list; argument).  Names and
digits are ASCII.  The one lexer also yields the strings, ':=' and '.' of
identity files, which no expression accepts: ``identities`` and
``series.from_string`` drive this parser over their whole text, so a
node's position is an offset into that text.  Trees are evaluated by
``evaluator``, whose ``evaluate`` and ``evaluate_value`` this module
re-exports.  ``int_value`` is the one integer interpreter:
the evaluator and the static guard estimate ``neg_shift`` both call it.
A ``*``/``/`` tree is one product, evaluated factor by factor.

A sum body's ``*``/``/`` factors split in two.  The q-hypergeometric part
H_n is every factor free of the index n, ``poch(x*q^(a*n+b), g*n+d[, s])``
with s | a >= 0 and g >= 0, ``1 -/+ x*q^(a*n+b)``, ``q^(quadratic in n)``,
``c^(linear in n)`` and ``(-1)^n``: it is evaluated once at the lower
limit, and its ratio H_(n+1)/H_n compiles into the factor lists of
``kernels.ratio_terms``, which builds every later term from the one
before.  The residual R_n is everything else (``V``, ``theta``, ``Pm``,
...) plus any poch factor whose ratio has a factor that may vanish in
range, such as ``poch(q^n, n)``; it is evaluated at each index and
multiplies that term.

Infinite ``sum`` nodes must carry an integer order-bound expression in
the index variable.  A body with a residual iterates while the bound is
below the target precision, so a sound bound makes the evaluation sound
by construction.  A pure H_n body runs to the later of that stop and the
one ``kernels.ratio_stop`` derives from the ratio, so a short bound
cannot truncate it; a ratio that cannot converge raises EvalError, and a
multiplier such as ``poch(q^-m, n)`` ends the sum at n = m.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import EvalError, ParseError, SortError, UnknownNameError
from . import sums
from .kernels import (
    bhs,
    qpoch_capped,
    qpoch_infinite,
    theta_dip,
    theta_full,
    theta_partial,
)

__all__ = ["parse", "render", "evaluate", "evaluate_value", "free_params", "int_value",
           "neg_shift", "Lit", "Ref", "BinOp", "Neg", "Pow", "Call", "Sum", "INF"]


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
# injects, from its arguments' q-orders o and values n (None for a series
# argument).  phi's kernel takes its three evaluated groups as they come.
_BUILTINS = {
    "theta": _Builtin("S", ("S",), lambda x, p: theta_partial(x, p),
                      lambda o, n: theta_dip(o[0])),
    "jtheta": _Builtin("S", ("S",), lambda x, p: theta_full(x, p),
                       lambda o, n: max(theta_dip(o[0]), theta_dip(1 - o[0]))),
    "poch": _Builtin("S", ("S", "I", "?I"),
                     lambda x, n, step=1, *, p: qpoch_capped(x, n, p + 16, step), _neg_arg),
    "pochinf": _Builtin("S", ("S",), lambda x, p: qpoch_infinite(x, p),
                        lambda o, n: theta_dip(o[0])),
    "phi": _Builtin("S", ("S", "S", "S"), lambda u, l, z, p: bhs(u, l, z[0], p),
                    _neg_arg),
    "Pm": _Builtin("S", ("I", "S", "S"), lambda m, a, b, p: sums.pmsum(m, a, b, p),
                   _neg_arg),
    "U": _Builtin("S", ("I", "S"), lambda m, b, p: sums.usum(m, b, p),
                  lambda o, n: max(_neg_arg(o, n), sums.u_dip(n[0], o[1]))),
    "V": _Builtin("S", ("I", "I", "S", "S"),
                  lambda m, n, a, b, p: sums.vsum(m, n, a, b, p), _neg_arg),
    "Q": _Builtin("S", ("I", "S"), lambda m, b, p: sums.qcap(m, b, p),
                  lambda o, n: max(_neg_arg(o, n), sums.u_dip(n[0] - 1, o[1]))),
    "lam": _Builtin("S", ("I", "I", "S"), lambda m, k, b, p: sums.lam(m, k, b, p),
                    _neg_arg),
    "S": _Builtin("S", ("S", "S"), lambda a, b, p: sums.ssum(a, b, p), _neg_arg),
    "Omega": _Builtin("S", ("S", "S"), lambda a, b, p: sums.omega(a, b, p),
                      lambda o, n: theta_dip(o[0])),
    "ThetaK": _Builtin("S", ("I", "S", "S"), lambda k, a, b, p: sums.thetak(k, a, b, p),
                       lambda o, n: sums.thetak_dip(n[0], o[1], o[2])),
    "T": _Builtin("S", ("S",), lambda a, p: sums.tsum(a, p),
                  lambda o, n: sums.t_dip(o[0])),
    "binom2": _Builtin("I", ("I",), lambda n: n * (n - 1) // 2, lambda o, n: 0),
}
_RESERVED = set(_BUILTINS) | {"q", "inf", "sum"}


# -- lexer --------------------------------------------------------------------

# One pattern reads every text qtheta takes: DSL expressions, identity files
# and series literals.  Whitespace and '#' comments are skipped; strings,
# ':=' and '.' belong to identity files, and no expression accepts them.
# Names, digits and symbols are ASCII; any other character is an error.
_TOKEN = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<NUM>[0-9]+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STR>"[^"]*")
  | (?P<SYM>:=|[-+*/^(),;.])
  | (?P<BAD>.)
""", re.VERBOSE | re.ASCII | re.DOTALL)


def _lex(text, where=None):
    """(kind, text, offset) tokens, ending with EOF; a symbol is its own kind."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError("unexpected character %r" % m.group(), m.start(), text, where)
        if kind:
            toks.append((m.group() if kind == "SYM" else kind, m.group(), m.start()))
    toks.append(("EOF", "", len(text)))
    return toks


# -- parser -------------------------------------------------------------------

# The deepest nesting parse accepts, both in the parser's own recursion
# (parentheses, call arguments, unary minus, exponents) and in the depth of
# the tree.  Each recursive pass over a tree (_check, _scan, render, the
# evaluator) takes a few Python frames per level, so this keeps all of them
# well inside the interpreter's default recursion limit of 1000.
MAX_DEPTH = 100


def _too_deep(pos, src):
    return ParseError("expression nested deeper than %d levels" % MAX_DEPTH, pos, *src)


class _Parser:
    """A recursive-descent parser over the tokens of one text.  ``parse``
    reads a whole text as one expression; ``identities`` and
    ``series.from_string`` take expressions from one parser as they go.
    where names the file in error messages."""

    def __init__(self, text, where=None):
        self.src = (text, where)
        self.toks = _lex(text, where)
        self.i = 0
        self.depth = 0

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.peek()[2], self.src)

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1] or "end of input"),
                             tok[2], *self.src)
        if tok[0] != "EOF":
            self.i += 1
        return tok

    def check(self, node):
        """node after the depth and sort checks of parse."""
        # A chain such as 1+1+...+1 parses in a loop but nests one level per
        # operator, so the tree's depth is checked before any recursive pass.
        stack = [(node, 1)]
        while stack:
            sub, depth = stack.pop()
            if depth > MAX_DEPTH:
                raise _too_deep(sub.pos, self.src)
            stack.extend((c, depth + 1) for c in _children(sub))
        _check(node, "S", frozenset(), self.src)
        return node

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
        self.enter()
        if self.peek()[0] == "-":
            _, _, pos = self.take()
            node = Neg(self.unary(), pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            node = Pow(node, self.exponent(), pos)
        return node

    def exponent(self):
        self.enter()
        if self.peek()[0] == "-":
            _, _, pos = self.take()
            node = Neg(self.exponent(), pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

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
                raise ParseError("builtin %r used without arguments" % textv, pos, *self.src)
            if len(textv) == 1 and textv.islower():
                return Ref(textv, pos)
            raise UnknownNameError("unknown name %r" % textv, pos, *self.src)
        raise ParseError("unexpected token %r" % (textv or "end of input"), pos, *self.src)

    def call(self, name, pos):
        if name != "sum" and name not in _BUILTINS:
            raise UnknownNameError("unknown function %r" % name, pos, *self.src)
        paren = self.take("(")[2]
        groups = [[]]
        if self.peek()[0] != ")":
            while True:
                if name == "sum" and len(groups) == 1 and not groups[0]:
                    tok = self.peek()
                    if tok[0] != "NAME":
                        raise ParseError("sum needs an index variable", tok[2], *self.src)
                groups[-1].append(self.expr())
                nxt = self.peek()[0]
                if nxt == ",":
                    self.take()
                    continue
                if nxt == ";":
                    # A ';' that no group takes often means a missing ')'
                    # in a file, so the error points at the '('.
                    if name != "phi":
                        raise ParseError("%r does not take ';' groups" % name, paren, *self.src)
                    if len(groups) == 3:
                        raise ParseError("phi needs (upper list; lower list; argument)",
                                         paren, *self.src)
                    self.take()
                    groups.append([])
                    continue
                break
        self.take(")")
        if name == "sum":
            return self.make_sum(groups[0], pos)
        if name == "phi":
            if len(groups) != 3 or len(groups[2]) != 1 or not groups[0] or not groups[1]:
                raise ParseError("phi needs (upper list; lower list; argument)", pos, *self.src)
            return Call("phi", tuple(tuple(g) for g in groups), pos)
        args = groups[0]
        sig = _BUILTINS[name].args
        req = [s for s in sig if not s.startswith("?")]
        if not (len(req) <= len(args) <= len(sig)):
            raise ParseError(
                "%s expects %d%s argument(s), got %d"
                % (name, len(req), "" if len(req) == len(sig) else " to %d" % len(sig), len(args)),
                pos, *self.src)
        return Call(name, (tuple(args),), pos)

    def make_sum(self, args, pos):
        if not 4 <= len(args) <= 5:
            raise ParseError("sum expects (var, lo, hi, body[, orderbound])", pos, *self.src)
        var = args[0]
        if not isinstance(var, Ref) or var.name == "q":
            raise ParseError("sum index must be a fresh lowercase name", pos, *self.src)
        hi = args[2]
        infinite = isinstance(hi, Ref) and hi.name == "inf"
        if infinite:
            hi = INF
            if len(args) != 5:
                raise ParseError("infinite sum without an orderbound", pos, *self.src)
        bound = args[4] if len(args) == 5 else None
        return Sum(var.name, args[1], hi, args[3], bound, pos)


# -- sort checking ------------------------------------------------------------


def _arg_sorts(node):
    """A call's arguments paired with their sorts, "S" or "I"; phi takes one
    sort per ';' group."""
    sig = _BUILTINS[node.name].args
    if node.name == "phi":
        return [(arg, sort) for group, sort in zip(node.groups, sig) for arg in group]
    return [(arg, sort.lstrip("?")) for arg, sort in zip(node.args, sig)]


def int_value(node, ienv):
    """The value of a sort-checked integer tree whose sum indices ienv binds:
    the one integer interpreter, for the evaluator and the guard estimate."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Ref):
        return ienv[node.name]
    if isinstance(node, Neg):
        return -int_value(node.operand, ienv)
    if isinstance(node, BinOp):
        a, b = int_value(node.left, ienv), int_value(node.right, ienv)
        return a + b if node.op == "+" else a - b if node.op == "-" else a * b
    if isinstance(node, Call) and _BUILTINS[node.name].sort == "I":
        return _BUILTINS[node.name].kernel(*(int_value(a, ienv) for a in node.args))
    raise EvalError("not an integer expression", getattr(node, "pos", None))


def _check(node, want, ivars, src):
    if isinstance(node, Lit):
        return
    if isinstance(node, Ref):
        if node.name == "inf":
            raise SortError("'inf' is only valid as a sum upper limit", node.pos, *src)
        if node.name == "q":
            if want == "I":
                raise SortError("q in an integer position", node.pos, *src)
            return
        if node.name in ivars:
            return
        if want == "I":
            raise SortError("parameter %r in an integer position" % node.name, node.pos, *src)
        return
    if isinstance(node, Neg):
        _check(node.operand, want, ivars, src)
        return
    if isinstance(node, BinOp):
        if node.op == "/" and want == "I":
            raise SortError("division is not allowed in integer expressions", node.pos, *src)
        _check(node.left, want, ivars, src)
        _check(node.right, want, ivars, src)
        return
    if isinstance(node, Pow):
        if want == "I":
            raise SortError("'^' is not allowed in integer expressions", node.pos, *src)
        _check(node.base, "S", ivars, src)
        _check(node.exp, "I", ivars, src)
        return
    if isinstance(node, Call):
        b = _BUILTINS[node.name]
        if want == "I" and b.sort != "I":
            raise SortError("series-valued %s(...) in an integer position" % node.name,
                            node.pos, *src)
        for arg, sort in _arg_sorts(node):
            _check(arg, sort, ivars, src)
        return
    if isinstance(node, Sum):
        if want == "I":
            raise SortError("sum(...) in an integer position", node.pos, *src)
        if node.var in ivars:
            raise SortError("sum index %r shadows an enclosing index" % node.var, node.pos, *src)
        _check(node.lo, "I", ivars, src)
        if node.hi is not INF:
            _check(node.hi, "I", ivars, src)
        inner = ivars | {node.var}
        _check(node.body, "S", inner, src)
        if node.bound is not None:
            _check(node.bound, "I", inner, src)
        return
    raise TypeError("unknown node %r" % (node,))


def parse(text):
    """Parse and sort-check DSL text, returning the expression tree."""
    p = _Parser(text)
    node = p.expr()
    p.take("EOF")
    return p.check(node)


def _children(node):
    """The subtrees directly below a node."""
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base, node.exp)
    if isinstance(node, Call):
        return tuple(arg for group in node.groups for arg in group)
    if isinstance(node, Sum):
        return tuple(x for x in (node.lo, node.hi, node.body, node.bound)
                     if x is not None and x is not INF)
    return ()


def free_params(node, bound=frozenset()):
    """Names of free single-letter parameters (excluding q and sum indices)."""
    out = set()

    def walk(node, bound):
        if isinstance(node, Ref):
            if node.name not in bound and node.name not in ("q", "inf"):
                out.add(node.name)
        elif isinstance(node, Sum):
            # The index is bound in the body and the bound, not in the limits.
            inner = bound | {node.var}
            for x, b in ((node.lo, bound), (node.hi, bound),
                         (node.body, inner), (node.bound, inner)):
                walk(x, b)
        else:
            for x in _children(node):
                walk(x, bound)

    walk(node, bound)
    return out


def sum_indices(node):
    """All sum index names used anywhere in the tree."""
    out = {node.var} if isinstance(node, Sum) else set()
    for sub in _children(node):
        out |= sum_indices(sub)
    return out


# -- static guard estimate ------------------------------------------------------


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
        e = int_value(node.exp, ienv)
        o = bo * e if bo else 0
        return o, max(bd * max(e, 1), -o)
    if isinstance(node, Sum):
        inner = dict(ienv)
        inner[node.var] = int_value(node.lo, ienv)
        _, d = _scan(node.body, inner)
        return 0, d
    if isinstance(node, Call):
        pairs = _arg_sorts(node)
        ords, dips = zip(*(_scan(arg, ienv) for arg, _ in pairs))
        guard = _BUILTINS[node.name].guard(
            ords, [int_value(arg, ienv) if sort == "I" else None for arg, sort in pairs])
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


# The evaluator builds on the tree types and the builtin table above.
from .evaluator import evaluate, evaluate_value  # noqa: E402
