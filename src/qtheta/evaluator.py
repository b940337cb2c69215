"""Evaluation of DSL expression trees (see ``dsl`` for the language).

Series-sort nodes evaluate to exact values while they stay exact and to
LaurentSeries otherwise; integer-sort nodes evaluate to ints through
``dsl.int_value``, the one integer interpreter.  There are two exact kinds,
the monomial c*q^e (QMonomial) and N(q)/D(q) (QRational), and the value
algebra of ``kernels`` keeps + - * / ^ of exact values exact wherever they
stand: a builtin argument, a derived binding, a prefactor or a divisor.
A series times or over an exact value runs on the exact step and loses
no precision to it.
Every ``*``/``/`` tree is one product, taken factor by factor from the
left: ``a*(b/c)`` is ``(a*b)/c``, which for nonzero values is the same
value and precision, as the precision rules of ``mul`` and ``divide``
compose.  Each sum body splits into its q-hypergeometric part H_n, whose
term ratio drives ``kernels.ratio_terms``, and a residual R_n evaluated
term by term; the ``dsl`` docstring gives the split and the stop rules.
An infinite sum builds each term only to the precision it keeps (see
``terms``): with a residual, t_n to the target less ord(R_n), and R_n, in
a sub-evaluator, to the target less t_n's order bound; an R_n short of
that, or raising there, is evaluated at the target.  The sub-evaluator
walks each orderbound and each residual index on to the target, so it
raises wherever the evaluation at the target does.  Within one
evaluation, a builtin call whose evaluated arguments equal an earlier
call's is computed once, and the repeat gets a result structurally
identical to a fresh call.  Before a finite sum evaluates its residual,
each top-level ``Pm`` factor whose evaluated arguments are
(m, x*q^k, y*q^k) over the sum's indices, with exact x and y, gets all
its values from one ``sums.pmfamily`` call, stored in the memo under the
keys the calls build; each equals the fresh call.  A family call that
raises stores nothing, so each call then raises as it would alone.

An infinite sum multiplier starts at t_0 = (every other multiplier of
q-order exactly 0) * H_lo, as ``sums._pfamily`` starts P_m at
(q,a,b;q)_inf, using the values already evaluated.  Order 0 moves
neither the stop nor the precision.  A negative order would lower every
term while a residual sum still stops where its bound says, claiming
coefficients it never added; a positive order would stop the sum early,
and a later division would cost precision.  Other factors multiply after.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce

from .errors import BoundViolationError, EvalError, QThetaError
from . import series as se
from . import sums
from .dsl import (_BUILTINS, INF, BinOp, Call, Lit, Neg, Pow, Ref, Sum, _arg_sorts,
                  free_params, int_value, render)
from .kernels import (
    _EXACT,
    QMonomial,
    QRational,
    _dense_mul,
    as_value,
    ord_of,
    ratio_stop,
    ratio_terms,
    to_series,
    _val_add,
    _val_inv,
    _val_mul,
    _val_neg,
    _val_pow,
    _val_shift,
)

__all__ = ["evaluate", "evaluate_value"]

_ITER_SLACK = 100
_ONE = QMonomial(Fraction(1), 0)


def _mul_factors(node, div_pos=None):
    """The factors of a '*'/'/' tree, each with the position of the '/'
    that divides by it (None for a multiplier)."""
    if isinstance(node, BinOp) and node.op in "*/":
        yield from _mul_factors(node.left, div_pos)
        if node.op == "/":
            div_pos = node.pos if div_pos is None else None
        yield from _mul_factors(node.right, div_pos)
    else:
        yield node, div_pos


# Polynomials in the shifted sum index k = n - lo: coefficient lists, lowest first.

def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)]


def _pneg(a):
    return [-c for c in a]


def _deg(a):
    return max((i for i, c in enumerate(a) if c), default=-1)


def _coef(a, i):
    return a[i] if i < len(a) else 0


def _split_q(pairs, e):
    """Move the q-powers of exact bases b = c*q^f into the exponent e of q."""
    out = []
    for b, p in pairs:
        if isinstance(b, QMonomial):
            e = _padd(e, [b.exp * c for c in p])
            if b.coef != 1:
                out.append((QMonomial(b.coef, 0), p))
        else:
            out.append((b, p))
    return out, e


def _vanishes_at(v, i, kmax):
    """The k < kmax (None: no limit) at which 1 - v*q^(i*k) may vanish:
    ord(v) = -i*k and v's leading coefficient is 1.  For a QRational v,
    never a monomial, it never does."""
    d = ord_of(v)
    if d is None or d > 0 or d % i or isinstance(v, QRational):
        return None
    k = -d // i
    lead = v.coef if isinstance(v, QMonomial) else v.coeff(d)
    return k if lead == 1 and (kmax is None or k < kmax) else None


def _ord_rel(x):
    """(order, relative precision) of a value; exact values have no limit."""
    if isinstance(x, _EXACT):
        return ord_of(x), None
    return x._ord(), x.prec - x._ord()


_Split = namedtuple("_Split", "h r num den z sr n_term")


class _Evaluator:
    def __init__(self, binding, prec, check=None):
        self.binding = binding
        self.prec = prec
        # The precision this evaluation stands in for (see residual): its
        # orderbounds and residual indices are walked as far as there.
        self.check = prec if check is None else check
        # (builtin name, evaluated arguments) -> kernel result; prec is fixed.
        self.memo = {}

    def run(self, node):
        return to_series(self.value(node, {}), self.prec)

    # integer sort ------------------------------------------------------------

    def kpoly(self, node, var, ienv):
        """An integer expression as a polynomial in k = var - ienv[var]."""
        if isinstance(node, Ref) and node.name == var:
            return [ienv[var], 1]
        if isinstance(node, Neg):
            return _pneg(self.kpoly(node.operand, var, ienv))
        if isinstance(node, BinOp):
            a = self.kpoly(node.left, var, ienv)
            b = self.kpoly(node.right, var, ienv)
            if node.op == "*":
                return _dense_mul(a, b)
            return _padd(a, b if node.op == "+" else _pneg(b))
        if isinstance(node, Call) and node.name == "binom2":
            a = self.kpoly(node.args[0], var, ienv)
            return [Fraction(c, 2) for c in _dense_mul(a, _padd(a, [-1]))]
        return [int_value(node, ienv)]

    # series sort ---------------------------------------------------------------

    def value(self, node, ienv):
        """A series-sort node's value: exact (a QMonomial or a QRational)
        while every operation on the way is exact, else a LaurentSeries."""
        if isinstance(node, Lit):
            return as_value(node.value)
        if isinstance(node, Ref):
            if node.name == "q":
                return QMonomial(Fraction(1), 1)
            if node.name in ienv:
                return as_value(ienv[node.name])
            try:
                return as_value(self.binding[node.name])
            except KeyError:
                raise EvalError("unbound parameter %r" % node.name, node.pos) from None
        if isinstance(node, Neg):
            return _val_neg(self.value(node.operand, ienv))
        if isinstance(node, BinOp):
            if node.op in "*/":
                return self.product(_mul_factors(node), ienv)
            a = self.value(node.left, ienv)
            b = self.value(node.right, ienv)
            return _val_add(a, b if node.op == "+" else _val_neg(b))
        if isinstance(node, Pow):
            n = int_value(node.exp, ienv)
            v = self.value(node.base, ienv)
            try:
                return _val_pow(v, n)
            except QThetaError as exc:
                raise EvalError(str(exc), node.pos) from exc
        if isinstance(node, Call):
            return self.call(node, ienv)
        if isinstance(node, Sum):
            return self.sum(node, ienv)
        raise TypeError("unknown node %r" % (node,))

    def product(self, factors, ienv):
        """The product of (factor, div_pos) pairs from _mul_factors.  The
        first infinite Sum multiplier starts at the product of the other
        multipliers of q-order 0 that do not mention its index (see
        sum); every other factor multiplies in order."""
        factors = list(factors)
        s = next((i for i, (f, d) in enumerate(factors)
                  if d is None and isinstance(f, Sum) and f.hi is INF), None)
        if s is not None:
            node = factors[s][0]
            xs = {i: self.value(f, ienv) for i, (f, _) in enumerate(factors) if i != s}
            fold = [i for i in xs if factors[i][1] is None and ord_of(xs[i]) == 0
                    and node.var not in free_params(factors[i][0])]
            xs[s] = self.sum(node, ienv, [(factors[i][0], xs.pop(i)) for i in fold])
        v = _ONE
        for i, (f, div_pos) in enumerate(factors):
            x = self.value(f, ienv) if s is None else xs.get(i)
            if x is not None:
                v = _val_mul(v, x) if div_pos is None else self.div(v, x, div_pos)
        return v

    def div(self, a, b, pos):
        if isinstance(b, _EXACT):
            if ord_of(b) is None:
                raise EvalError("division by zero", pos)
            return _val_mul(a, _val_inv(b))
        try:
            if isinstance(a, _EXACT):
                # Also an exact zero dividend: a divisor zero to precision raises.
                return _val_mul(a, se.invert(b))
            return se.divide(a, b)
        except QThetaError as exc:
            raise EvalError(str(exc), pos) from exc

    def key(self, node, ienv):
        """The memo key of a series-sort builtin call: its name and its
        evaluated arguments."""
        if node.name == "phi":
            return node.name, tuple(tuple(self.value(x, ienv) for x in g) for g in node.groups)
        return node.name, tuple(int_value(a, ienv) if sort == "I" else self.value(a, ienv)
                                for a, sort in _arg_sorts(node))

    def call(self, node, ienv):
        b = _BUILTINS[node.name]
        if b.sort == "I":
            return as_value(int_value(node, ienv))
        try:
            key = self.key(node, ienv)
            v = self.memo.get(key)
            if v is None:
                v = self.memo[key] = b.kernel(*key[1], p=self.prec)
            return v
        except EvalError:
            raise
        except QThetaError as exc:
            raise EvalError(str(exc), node.pos) from exc

    def prefetch(self, node, var, ienv, count):
        """Put Pm(m, x*q^k, y*q^k) for the indices k < count of var into
        the memo from one sums.pmfamily call, when the evaluated arguments
        are exact monomials of that shape and some key is missing.  A
        failure stores nothing and leaves each call to raise for itself."""
        try:
            keys = []
            for k in range(count):
                inner = dict(ienv)
                inner[var] = ienv[var] + k
                keys.append(self.key(node, inner))
            m, a, b = keys[0][1]
            if (not all(isinstance(x, QMonomial) for x in (a, b))
                    or all(key in self.memo for key in keys)
                    or any(key[1] != (m, _val_shift(a, k), _val_shift(b, k))
                           for k, key in enumerate(keys))):
                return
            values = sums.pmfamily(m, a, b, count, self.prec)
        except QThetaError:
            return
        for key, v in zip(keys, values):
            self.memo.setdefault(key, v)

    # sums ------------------------------------------------------------------------
    #
    # A sum body's factors (_mul_factors) split into a q-hypergeometric part
    # H_n, whose ratio H_(n+1)/H_n compiles into ratio_terms' factor lists
    # (v, i, j) for 1 - v*q^(i*k+j), and a residual R_n evaluated term by
    # term.  ienv binds the index to lo, and every polynomial below is in
    # k = n - lo.

    def mono(self, node, var, ienv):
        """node as prod b^L(k) * q^E(k) over index-free values b: the pairs
        (b, L) and E, or None for another shape."""
        if var not in free_params(node):
            return [(self.value(node, ienv), [1])], []
        if isinstance(node, Neg):
            m = self.mono(node.operand, var, ienv)
            return m and (m[0] + [(QMonomial(Fraction(-1), 0), [1])], m[1])
        if isinstance(node, BinOp) and node.op in "*/":
            a = self.mono(node.left, var, ienv)
            b = self.mono(node.right, var, ienv)
            if a is None or b is None:
                return None
            if node.op == "/":
                b = [(v, _pneg(p)) for v, p in b[0]], _pneg(b[1])
            return a[0] + b[0], _padd(a[1], b[1])
        if isinstance(node, Pow):
            m = self.mono(node.base, var, ienv)
            if m is None:
                return None
            e = self.kpoly(node.exp, var, ienv)
            return [(v, _dense_mul(p, e)) for v, p in m[0]], _dense_mul(m[1], e)
        return None

    def mono_ratio(self, node, var, ienv, divisor):
        """(z, s) with H(k+1)/H(k) = z q^(s*k) for a factor c^(linear) *
        q^(quadratic), or None."""
        m = self.mono(node, var, ienv)
        if m is None:
            return None
        pairs, e = _split_q(*m)
        if divisor:
            pairs, e = [(b, _pneg(p)) for b, p in pairs], _pneg(e)
        if _deg(e) > 2:
            return None
        z = QMonomial(Fraction(1), int(_coef(e, 1) + _coef(e, 2)))
        for b, p in pairs:
            if _deg(p) > 1 or ord_of(b) is None:
                return None
            d = int(_coef(p, 1))
            if d:
                z = _val_mul(z, _val_pow(b, d))
        return z, int(2 * _coef(e, 2))

    def poch_ratio(self, node, var, ienv):
        """(num, den, alpha) for poch(x*q^(alpha*k), L0 + g*k, s) with
        s | alpha >= 0 and g >= 0, or for 1 -/+ x*q^(alpha*k) (that is
        poch(+-x*q^(alpha*k), 1)): the factors (v, i) = 1 - v*q^(i*k) of
        the ratio, or None for another shape."""
        if isinstance(node, Call) and node.name == "poch":
            x, length, *step = node.args
            if step and var in free_params(step[0]):
                return None
            s = int_value(step[0], ienv) if step else 1
            lp = self.kpoly(length, var, ienv)
            l0, g = int(_coef(lp, 0)), int(_coef(lp, 1))
            if _deg(lp) > 1 or l0 < 0 or g < 0 or s < 1:
                return None
            plus = False
        elif isinstance(node, BinOp) and node.op in "+-" and node.left == Lit(1):
            x, l0, g, s, plus = node.right, 1, 0, 1, node.op == "+"
        else:
            return None
        m = self.mono(x, var, ienv)
        if m is None:
            return None
        pairs, e = _split_q(*m)
        alpha = int(_coef(e, 1))
        if any(_deg(p) > 0 for _, p in pairs) or _deg(e) > 1 or alpha < 0 or alpha % s:
            return None
        x0 = self.value(x, ienv)
        if plus:
            x0 = _val_neg(x0)
        num = [(_val_shift(x0, s * (l0 + r)), alpha + s * g) for r in range(g + alpha // s)]
        den = [(_val_shift(x0, s * r), alpha) for r in range(alpha // s)]
        for f in list(num):
            if f in den:
                num.remove(f)
                den.remove(f)
        return num, den, alpha

    def split(self, body, var, ienv, kmax):
        """Split a sum body into H_n and R_n.

        A poch-type factor goes to R_n when a factor of its ratio may
        vanish at a ratio index k < kmax (None: any k), unless it is an
        index-free exact argument in a multiplier: then the body
        terminates there (n_term).
        """
        h, r, num, den = [], [], [], []
        z, sr, n_term = _ONE, 0, None
        for f, div_pos in _mul_factors(body):
            if var not in free_params(f):
                h.append((f, div_pos))
                continue
            mr = self.mono_ratio(f, var, ienv, div_pos is not None)
            if mr is not None:
                z, sr = _val_mul(z, mr[0]), sr + mr[1]
                h.append((f, div_pos))
                continue
            pr = self.poch_ratio(f, var, ienv)
            if pr is not None:
                fn, fd, alpha = pr
                if div_pos is not None:
                    fn, fd = fd, fn
                ends = [k for k in (_vanishes_at(v, i, kmax) for v, i in fn) if k is not None]
                ends_sum = alpha == 0 and div_pos is None and all(
                    isinstance(v, QMonomial) for v, _ in fn)
                if (ends_sum or not ends) and all(_vanishes_at(v, i, kmax) is None for v, i in fd):
                    n_term = min(ends + ([] if n_term is None else [n_term]), default=None)
                    num += [(v, i, 0) for v, i in fn]
                    den += [(v, i, 0, render(f)) for v, i in fd]
                    h.append((f, div_pos))
                    continue
            r.append((f, div_pos))
        # ratio_terms multiplies by (-1)^sr itself.
        return _Split(h, r, num, den, _val_neg(z) if sr % 2 else z, sr, n_term)

    def bound_count(self, node, ienv):
        """(count, reach): count, the terms an infinite sum takes by its
        orderbound (the first index whose bound reaches the target
        precision, less lo), and reach, the same for the check precision,
        whose iteration limit applies."""
        lo = ienv[node.var]
        limit = 10 * self.check + _ITER_SLACK
        inner = dict(ienv)
        i, count = lo, None
        while True:
            bound = int_value(node.bound, inner)
            if count is None and bound >= self.prec:
                count = i - lo
            if bound >= self.check:
                return count, i - lo
            if i - lo > limit:
                raise BoundViolationError(
                    "orderbound below %d after %d iterations" % (self.check, limit), node.pos)
            i += 1
            inner[node.var] = i

    def start(self, c, rel, h, ienv):
        """t_0 = c, the product of h, at relative precision rel + 2,
        re-evaluated once at a higher precision when c carries less than
        rel, with the check precision raised as far."""
        rel = max(rel, -1)
        if isinstance(c, _EXACT):
            return to_series(c, ord_of(c) + rel + 2)
        got = c.prec - c._ord()
        if got < rel:
            p = self.prec + rel - got
            c = _Evaluator(self.binding, p, p + self.check - self.prec).product(h, ienv)
        return se.cap(c, c._ord() + rel + 2)

    def sum(self, node, ienv, fold=()):
        lo = int_value(node.lo, ienv)
        finite = node.hi is not INF
        inner = dict(ienv)
        inner[node.var] = lo
        if finite:
            count = reach = int_value(node.hi, ienv) - lo + 1
            if count <= 0:
                return se.zero(self.prec)
        else:
            count, reach = self.bound_count(node, inner)
        try:
            acc = se.add_all((to_series(t, self.prec)
                              for t in self.terms(node, inner, count, reach, finite, fold)),
                             se.zero(self.prec))
        except EvalError:
            raise
        except QThetaError as exc:
            raise EvalError(str(exc), node.pos) from exc
        return acc if finite else se.cap(acc, self.prec)

    def residual(self, r, ienv, need):
        """R_k, the product of r at ienv, for a term t_k of order at least
        prec - need: at max(1, need), in a fresh sub-evaluator, when need
        is below the target, as t_k * R_k keeps no more of it.  The
        sub-evaluator checks at the target (bound_count, terms), so it
        raises where an evaluation at the target raises.  An R_k short of
        need there or raising there, and each R_k of a finite sum (need
        None), is evaluated at the target, so its value or error is the
        one it has there."""
        if need is not None and need < self.prec:
            try:
                x = _Evaluator(self.binding, max(1, need), self.check).product(r, ienv)
                if not isinstance(x, se.LaurentSeries) or x.prec >= need:
                    return x
            except QThetaError:
                pass
        return self.product(r, ienv)

    def terms(self, node, ienv, count, reach, finite, fold):
        """The terms of a sum: the t_k of ratio_terms started at the
        product of the (factor, value) pairs in fold and H_lo, times R_k
        when the body has a residual.  An infinite sum builds each term
        only to the precision the truncated sum keeps.  A pure-H_n term is
        capped at the target.  With a residual, t_k is capped at the
        target less ord(R_k), and R_k built to the target less ord(c) +
        cum_k (see residual), with c the prefactor and cum_k the bound of
        ratio_stop, so t_k * R_k reaches the target unless R_k is short
        there, when the product is as short uncapped.  R_k is evaluated
        for each k < reach, the count at the check precision (see
        bound_count), beyond count only for its errors.  A finite sum,
        whose precision is the minimum over its terms, builds R_k at the
        target and t_k uncapped."""
        prec = self.prec
        var = node.var
        h, r, num, den, z, sr, n_term = self.split(
            node.body, var, ienv, count - 1 if finite else None)
        c = reduce(_val_mul, [x for _, x in fold] + [self.product(h, ienv)])
        h = [(f, None) for f, _ in fold] + h
        if isinstance(c, QMonomial) and c.coef == 0:
            return []
        dc = _ord_rel(c)[0]
        if r:
            # The orderbound stops the sum, and R_n is evaluated at every
            # index, also past the end of a terminating H_n, where it may
            # still divide by zero, and on to the check precision's stop.
            # R_n comes first so that t_0's precision covers every term's
            # order and, in a finite sum, R_n's relative precision.
            if finite and count > 1:
                for f, _ in r:
                    if isinstance(f, Call) and f.name == "Pm":
                        self.prefetch(f, var, ienv, count)
            cums = ratio_stop(num, den, z, sr, least=reach)
            rs, need, top = [], [], []
            for k, cum in enumerate(cums):
                inner = dict(ienv)
                inner[var] = ienv[var] + k
                x = self.residual(r, inner, None if finite else prec - dc - cum)
                if k >= count:
                    continue  # past count, R_k is evaluated for its errors only
                rs.append(x)
                if isinstance(x, QMonomial) and x.coef == 0:
                    top.append(None)
                    continue
                dx, rel = _ord_rel(x)
                need.append(prec - dc - cum - dx)
                top.append(prec - dx)
                if finite and rel is not None:
                    need.append(rel)
            if not count:
                return []
            t0 = self.start(c, max(need, default=0), h, ienv)
            terms = ratio_terms(num, den, z, sr, t0, count, None if finite else top, cums[:count])
            return (_val_mul(t, x) for t, x in zip(terms, rs))
        # Pure H_n: the later of the orderbound's stop and ratio_stop's.
        if finite:
            n_term = count - 1 if n_term is None else min(n_term, count - 1)
        if n_term is None:
            if sr < 0 or (sr == 0 and ord_of(z) <= 0):
                raise EvalError("non-terminating sum whose term ratio z*q^(%d*n), "
                                "ord(z) = %d, cannot converge" % (sr, ord_of(z)), node.pos)
            cums = ratio_stop(num, den, z, sr, prec - dc, least=count)
        else:
            cums = ratio_stop(num, den, z, sr, least=n_term + 1)
        t0 = self.start(c, prec - dc - min(cums, default=0), h, ienv)
        return ratio_terms(num, den, z, sr, t0, len(cums),
                           None if finite else [prec] * len(cums), cums)


def evaluate(ast, binding, prec):
    """Evaluate to a LaurentSeries at target precision ``prec``."""
    return _Evaluator(binding, prec).run(ast)


def evaluate_value(ast, binding, prec):
    """Like evaluate, but keeps an exact result exact: a QMonomial or a
    QRational."""
    return _Evaluator(binding, prec).value(ast, {})
