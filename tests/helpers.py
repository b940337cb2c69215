"""Shared brute-force oracles for the test suite.

Everything here recomputes values straight from defining formulas using
only series-core primitives (or plain integer lists), independently of
the kernel/sum implementations under test.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from qtheta import series as se
from qtheta.dsl import INF, int_value
from qtheta.evaluator import _Evaluator
from qtheta.errors import DegenerateParameterError
from qtheta.kernels import (
    QMonomial,
    QRational,
    _factor,
    _mul_value,
    as_value,
    negord,
    one_minus,
    ord_of,
    qpoch_capped,
    to_series,
)


def _fraction_divmod(a, b):
    """(quotient, remainder) of dense Fraction lists a and b, lowest first."""
    a, quo = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(quo))):
        quo[k] = f = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= f * c
    del a[len(b) - 1:]
    while a and not a[-1]:
        a.pop()
    return quo, a


def exact_by_fraction_euclid(num, den):
    """kernels._exact's canonical num/den of sparse integer polynomials by
    Euclid's algorithm over dense Fraction lists: divide N and D by their
    gcd in Q[q], clear denominators, then take out the content and give D
    a positive constant term."""
    def dense(a):
        out = [Fraction(0)] * (a[-1][0] - a[0][0] + 1)
        for e, c in a:
            out[e - a[0][0]] = Fraction(c)
        return out

    if not num:
        return QMonomial(Fraction(0), 0)
    num = tuple((e - den[0][0], c) for e, c in num)
    den = tuple((e - den[0][0], c) for e, c in den)
    a, b = dense(num), dense(den)
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    qn, qd = _fraction_divmod(dense(num), a)[0], _fraction_divmod(dense(den), a)[0]
    m = lcm(*(c.denominator for c in qn + qd))
    num = tuple((num[0][0] + e, int(c * m)) for e, c in enumerate(qn) if c)
    den = tuple((e, int(c * m)) for e, c in enumerate(qd) if c)
    cs = [c for _, c in num + den]
    g = gcd(*cs) * (1 if cs[len(num)] > 0 else -1)
    num = tuple((e, c // g) for (e, _), c in zip(num, cs))
    den = tuple((e, c // g) for (e, _), c in zip(den, cs[len(num):]))
    if len(num) == 1 and len(den) == 1:
        return QMonomial(Fraction(num[0][1], den[0][1]), num[0][0])
    return QRational(num, den)


def rand_fraction(rng, exclude=(0, 1, -1)):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v not in [Fraction(e) for e in exclude]:
            return v


def factor_one_minus(x, k, prec):
    """1 - x*q^k built from series-core pieces only."""
    xs = to_series(as_value(x), prec)
    return se.sub(se.one(xs.prec + k), se.shift(xs, k))


def brute_poch(x, n, prec, step=1):
    """(x;q^step)_n as an explicit factor-by-factor product."""
    acc = se.one(prec)
    for i in range(n):
        acc = se.mul(acc, factor_one_minus(x, step * i, prec))
    return acc


def brute_poch_inf(x, prec, slack=8):
    """(x;q)_inf truncated, with generous extra factors."""
    xs = to_series(as_value(x), prec + slack)
    d = xs.order()
    if d is None:
        return se.one(prec)
    acc = se.one(prec + slack)
    for i in range(prec + slack - min(0, 3 * d)):
        acc = se.mul(acc, factor_one_minus(xs, i, prec + slack))
    return se.cap(acc, prec)


def brute_theta(x, prec):
    """Partial theta by direct summation of (-1)^n q^(n(n-1)/2) x^n."""
    xs = to_series(as_value(x), prec + 4)
    acc = se.zero(prec + 4)
    xpow = se.one(prec + 4 + 2 * max(0, -(xs.order() or 0)) * (prec + 4))
    n = 0
    while True:
        e = n * (n - 1) // 2 + n * (xs.order() if xs.order() is not None else prec + 4)
        if n > 0 and e >= prec + 4 and n >= 1 - min(0, xs.order() or 0):
            break
        term = se.shift(xpow, n * (n - 1) // 2)
        acc = se.add(acc, se.neg(term) if n % 2 else term)
        xpow = se.mul(xpow, xs)
        n += 1
    return se.cap(acc, prec)


def ratio_terms_by_ring(num, den, z, sr, t0, n):
    """kernels.ratio_terms step by step in ring operations: each factor
    1 - v*q^k is a series (kernels._factor) that multiplies or divides the
    running term."""
    num = [(v, i, j, ord_of(v)) for v, i, j in num]
    den = [(v, i, j, ord_of(v), what) for v, i, j, what in den]
    t = t0
    yield t
    for k in range(n - 1):
        for v, i, j, d in num:
            t = se.mul(t, _factor(t, v, d, i * k + j))
        t = _mul_value(t, z)
        if sr:
            t = se.mul_monomial(t, Fraction(-1) ** sr, sr * k)
        for v, i, j, d, what in den:
            g = _factor(t, v, d, i * k + j)
            if g.is_zero:
                raise DegenerateParameterError(
                    "%s: factor 1 - v*q^%d vanishes" % (what, i * k + j))
            t = se.divide(t, g)
        yield t


def qpoch_infinite_by_product(x, prec):
    """(x;q)_inf as the product of its factors 1 - x*q^i, independent of
    Euler's sum in kernels.qpoch_infinite: an exact x stops at a derived
    factor count, a series x multiplies until the next factor's order
    clears prec."""
    v = as_value(x)
    if isinstance(v, QMonomial):
        # From factor stop on, e + i clears prec by the most the earlier
        # factors can dip below q^0, so later factors change nothing below
        # q^prec; stop > -e takes in any vanishing factor 1 - q^0.
        stop = max(0, prec - v.exp - negord(v.exp, max(0, -v.exp)))
        return qpoch_capped(v, stop, prec)
    if v.is_zero:
        return se.one(min(prec, v.prec))
    d = v.min_exp
    h = se.one(v.prec)
    i = 0
    while True:
        oh = h._ord()
        if i >= max(0, -d) and d + i + min(0, oh) >= prec:
            break
        if h.is_zero:
            break
        h = se.mul(h, one_minus(v, i, v.prec + i))
        i += 1
    return se.cap(h, prec)


def theta_partial_by_entries(x, prec):
    """Partial theta at an exact nonzero x = c*q^e summed into a dict of
    exponents with its own stop, independent of kernels.theta_partial's
    integer pass over ratio_stop's terms."""
    v = as_value(x)
    c, e = v.coef, v.exp
    entries = {}
    n = 0
    cp = Fraction(1)
    vertex = max(0, 1 - e)
    while True:
        ex = n * (n - 1) // 2 + n * e
        if n >= vertex and ex >= prec:
            break
        if ex < prec:
            entries[ex] = entries.get(ex, Fraction(0)) + (cp if n % 2 == 0 else -cp)
        n += 1
        cp *= c
    return reduce(se.add, (se.monomial(a, ex, prec) for ex, a in entries.items()), se.zero(prec))


def series_of(x, prec):
    return to_series(as_value(x), prec)


def qmon(c, e=0):
    return QMonomial(Fraction(c), e)


def assert_eq_series(x, y, min_prec=None):
    ok, joint = se.eq_to_prec(x, y)
    assert ok, "series differ: %s vs %s" % (x, y)
    if min_prec is not None:
        assert joint >= min_prec, "joint precision %d below %d" % (joint, min_prec)


def sum_by_terms(node, binding, prec, ienv=None):
    """A DSL sum evaluated term by term: the whole body at each index, added
    up; an infinite sum runs while its orderbound is below prec."""
    ev = _Evaluator(binding, prec)
    ienv = dict(ienv or {})
    ienv[node.var] = int_value(node.lo, ienv)
    hi = None if node.hi is INF else int_value(node.hi, ienv)
    acc = None
    while (ienv[node.var] <= hi if hi is not None
           else int_value(node.bound, ienv) < prec):
        term = to_series(ev.value(node.body, ienv), prec)
        acc = term if acc is None else se.add(acc, term)
        ienv[node.var] += 1
    if acc is None:
        return se.zero(prec)
    return acc if hi is not None else se.cap(acc, prec)
