"""Shared brute-force oracles for the test suite.

Each oracle recomputes a value from its defining formula with series-core
operations (or plain integer lists), not with the kernel or sum that it
checks.  Some take their inputs from kernels helpers: ``to_series`` embeds
arguments, ``one_minus`` builds a series factor, and
``qpoch_infinite_by_product`` takes the exact product ``qpoch_capped``.
``ratio_terms_by_ring``, the term loop in ring operations, uses nothing of
kernels but the value types and ``ord_of``.  ``bareiss_det`` and
``adjugate_row_by_bareiss`` solve the eliminator's integer systems over
Z[q] by fraction-free elimination, with no modulus.
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


def _poly_series(poly, p):
    """A sparse integer polynomial ((exponent, coefficient), ...) to O(q^p)."""
    lo = poly[0][0]
    out = [0] * (poly[-1][0] - lo + 1)
    for e, c in poly:
        out[e - lo] = c
    return se._make(lo, out, 1, p)


def _one_minus(v, k, prec):
    """The factor 1 - v*q^k as a series: of precision v.prec + k for a
    series v, else at a precision >= prec that depends only on v, k and
    prec.  An N/D value v is (D - N*q^k)/D, divided in the ring at the
    precision its embedding as an exact value has."""
    if isinstance(v, se.LaurentSeries):
        return se.sub(se.one(v.prec + k), se.shift(v, k))
    if isinstance(v, QRational):
        f = dict(v.den)
        for e, c in v.num:
            f[e + k] = f.get(e + k, 0) - c
        f = tuple(sorted((e, c) for e, c in f.items() if c))
        lo = f[0][0]
        p = max(prec, lo + 1)
        return se.divide(_poly_series(f, p), _poly_series(v.den, p - lo))
    if v.coef == 0:
        return se.one(prec)
    e = v.exp + k
    if e == 0:
        return se.from_rational(1 - v.coef, prec)
    p = max(prec, max(0, e) + 1)
    c = v.coef
    lo = min(0, e)
    num = [0] * (abs(e) + 1)
    num[0 - lo] = c.denominator
    num[e - lo] = -c.numerator
    return se._make(lo, num, c.denominator, p)


def _factor(t, v, d, k):
    """1 - v*q^k at a precision that never caps the running term t."""
    return _one_minus(v, k, t.prec - min(0, t._ord()) + 2 * abs(min(0, (d or 0) + k)) + 4)


def _times_z(t, z):
    """t times a nonzero z; an exact z is embedded at a precision that
    does not bind, so the product has mul's precision t.prec + ord z."""
    if isinstance(z, QMonomial):
        return se.zero(t.prec + z.exp) if z.coef == 0 else se.mul_monomial(t, z.coef, z.exp)
    if isinstance(z, QRational):
        p = t.prec - t._ord() + 1
        z = se.divide(_poly_series(z.num, p + z.num[0][0]), _poly_series(z.den, p))
    return se.mul(t, z)


def ratio_terms_by_ring(num, den, z, sr, t0, n, top=None, cums=None):
    """kernels.ratio_terms step by step in ring operations: each factor
    1 - v*q^k is a series (_factor) that multiplies or divides the
    running term, and so is z.  A series factor has its own precision;
    an exact one is built at a precision that never caps the term, padded
    by 4 so that a factor that vanishes leaves a zero of that
    precision.  ``top`` and ``cums`` cap the terms as in ratio_terms."""
    caps = [None] * max(n, 1)
    if top is not None:
        gap = None
        for k in reversed(range(n)):
            if top[k] is not None:
                gap = top[k] - cums[k] if gap is None else max(gap, top[k] - cums[k])
            if gap is not None:
                caps[k] = cums[k] + gap
        if caps[0] is not None:
            t0 = se.cap(t0, caps[0])
    num = [(v, i, j, ord_of(v)) for v, i, j in num]
    den = [(v, i, j, ord_of(v), what) for v, i, j, what in den]
    t = t0
    yield t
    for k in range(n - 1):
        for v, i, j, d in num:
            t = se.mul(t, _factor(t, v, d, i * k + j))
        t = _times_z(t, z)
        if sr:
            t = se.mul_monomial(t, Fraction(-1) ** sr, sr * k)
        for v, i, j, d, what in den:
            g = _factor(t, v, d, i * k + j)
            if g.is_zero:
                raise DegenerateParameterError(
                    "%s: factor 1 - v*q^%d vanishes" % (what, i * k + j))
            t = se.divide(t, g)
        if caps[k + 1] is not None:
            t = se.cap(t, caps[k + 1])
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
        h = se.mul(h, one_minus(v, i))
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


def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def _poly_exact_div(a, b):
    """a / b in Z[q] when b divides a, by long division from the top."""
    a, quo = list(a), [0] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(quo))):
        f, r = divmod(a[k + len(b) - 1], b[-1])
        assert not r, "inexact division"
        quo[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
    assert not any(a), "inexact division"
    return _poly_trim(quo)


def bareiss_det(matrix):
    """det of a square matrix of dense integer polynomials (q^0 first, []
    zero) by fraction-free Bareiss elimination over Z[q]: each step's 2x2
    update is divided exactly by the previous pivot."""
    M = [[_poly_trim(list(e)) for e in row] for row in matrix]
    n = len(M)
    sign, prev = 1, [1]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = _poly_exact_div(_poly_sub(poly_mul(M[k][k], M[i][j]),
                                                    poly_mul(M[i][k], M[k][j])), prev)
        prev = M[k][k]
    det = M[-1][-1] if n else [1]
    return det if sign > 0 else [-c for c in det]


def adjugate_row_by_bareiss(matrix, t):
    """det B and the row N with N B = det B e_t, N_r = (-1)^(r+t) times the
    minor of B without row r and column t, each minor by bareiss_det."""
    n = len(matrix)
    row = [bareiss_det([[e for c, e in enumerate(matrix[i]) if c != t]
                        for i in range(n) if i != r])
           for r in range(n)]
    return bareiss_det(matrix), [N if (r + t) % 2 == 0 else [-c for c in N]
                                 for r, N in enumerate(row)]


def poly_pair(a):
    """A dense integer polynomial as the eliminator's (valuation,
    coefficient tuple) pair; (0, ()) is zero."""
    a = _poly_trim(list(a))
    i = next((i for i, c in enumerate(a) if c), None)
    return (0, ()) if i is None else (i, tuple(a[i:]))
