"""Primitive q-functions over exact series arguments.

Every kernel takes a target precision.  Arguments may be exact scalars
(int, Fraction, :class:`QMonomial`) or :class:`LaurentSeries` values.
Exact arguments are embedded at whatever internal precision the requested
target demands, so results built purely from exact data always reach the
requested precision; series arguments propagate their own precision
through the ring rules and the result honestly reports what survived.

Infinite sums and products never stop on "term looks small": they stop
only once a mechanically derived lower bound on the q-order of all
remaining terms is at or above the target precision, and the result is
truncated to that target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateParameterError,
    DomainError,
    FormalDivergenceError,
    PrecisionError,
)
from . import series as se
from .series import LaurentSeries

__all__ = [
    "QMonomial",
    "as_value",
    "to_series",
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_multi",
    "theta_partial",
    "theta_full",
    "bhs",
]


@dataclass(frozen=True)
class QMonomial:
    """An exact monomial coef*q^exp; the zero argument is coef == 0."""

    coef: Fraction
    exp: int = 0

    def to_series(self, prec):
        return se.monomial(self.coef, self.exp, prec)


def as_value(x):
    """Normalize an argument to QMonomial (exact) or LaurentSeries."""
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, QMonomial):
        return QMonomial(Fraction(x.coef), x.exp)
    return QMonomial(Fraction(x), 0)


def to_series(x, prec):
    """Materialize a value as a series; exact values embed at >= prec."""
    v = as_value(x)
    if isinstance(v, LaurentSeries):
        return v
    if v.coef == 0:
        return se.zero(prec)
    return se.monomial(v.coef, v.exp, max(prec, v.exp + 1))


def ord_of(v):
    """q-order of a value, or None when it is zero (to precision)."""
    if isinstance(v, QMonomial):
        return v.exp if v.coef else None
    return v.order()


def _val_shift(v, k):
    if isinstance(v, QMonomial):
        return QMonomial(v.coef, v.exp + k)
    return se.shift(v, k)


def _val_mul(x, y):
    if isinstance(x, QMonomial) and isinstance(y, QMonomial):
        return QMonomial(x.coef * y.coef, x.exp + y.exp)
    if isinstance(x, QMonomial):
        return se.mul_monomial(y, x.coef, x.exp) if x.coef else QMonomial(Fraction(0), 0)
    if isinstance(y, QMonomial):
        return se.mul_monomial(x, y.coef, y.exp) if y.coef else QMonomial(Fraction(0), 0)
    return se.mul(x, y)


def _val_neg(v):
    if isinstance(v, QMonomial):
        return QMonomial(-v.coef, v.exp)
    return se.neg(v)


def _mul_value(t, v):
    """Series t times value v; exact monomials multiply without precision loss."""
    if isinstance(v, QMonomial):
        if v.coef == 0:
            return se.zero(t.prec + v.exp)
        return se.mul_monomial(t, v.coef, v.exp)
    return se.mul(t, v)


def negord(d, k):
    """sum_{i<k} min(0, d+i): the stored negative-order mass of (x;q)_k."""
    if d is None or d >= 0 or k <= 0:
        return 0
    t = min(k, -d)
    return t * d + t * (t - 1) // 2


def theta_dip(d):
    """-min_n (n(n-1)/2 + n*d): how far below q^0 theta(x) dips for ord(x) = d."""
    return -negord(d, -d)


def _m0(d, k):
    return min(0, (d if d is not None else 0) + k)


def one_minus(v, k, prec):
    """The factor 1 - v*q^k as a series of precision >= prec (exact v)."""
    if isinstance(v, LaurentSeries):
        return se.sub(se.one(v.prec + k), se.shift(v, k))
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
    return one_minus(v, k, t.prec - min(0, t._ord()) + 2 * abs(_m0(d, k)) + 4)


def _check_poch_invertible(v, n, what):
    """Eagerly reject (v;q)_n denominators with a vanishing factor."""
    d = ord_of(v)
    if d is None or d > 0:
        return
    i = -d
    if n is not None and i >= n:
        return
    if isinstance(v, QMonomial):
        if v.coef == 1:
            raise DegenerateParameterError(
                "%s: factor 1 - q^0 vanishes in (%s*q^%d;q)_%s"
                % (what, v.coef, v.exp, "inf" if n is None else n)
            )
    else:
        if one_minus(v, i, v.prec).is_zero:
            raise DegenerateParameterError(
                "%s: Pochhammer factor vanishes to working precision" % what
            )


# -- q-shifted factorials -----------------------------------------------------


def qpoch_finite(x, n, prec, step=1):
    """(x;q)_n = prod_{i<n} (1 - x*q^(step*i)); exact for exact x.

    The optional step widens the base to q^step, e.g. (q;q^2)_n.
    """
    if n < 0:
        raise DomainError("negative Pochhammer length %d" % n)
    if step < 1:
        raise DomainError("Pochhammer step must be >= 1")
    v = as_value(x)
    if n == 0:
        return se.one(max(prec, 1))
    if isinstance(v, QMonomial):
        # The whole product lies below q^(top+1), so nothing is dropped.
        top = sum(max(0, v.exp + step * i) for i in range(n))
        return qpoch_capped(v, n, max(prec, top + 1), step)
    acc = se.one(v.prec)
    for i in range(n):
        acc = se.mul(acc, one_minus(v, step * i, v.prec + step * i))
    return acc


def qpoch_capped(x, n, prec, step=1):
    """(x;q^step)_n truncated to ``prec`` while it is built.

    The one exact product.  For exact x = c*q^e each factor 1 - c*q^f is a
    two-term integer update num'[j] = cd*num[j] - cn*num[j-f] over the
    shared denominator cd^n; before the next factor every exponent at or
    above prec - suffix is dropped, where suffix <= 0 is the q-order the
    remaining factors can still add.  Series arguments, empty products
    and invalid lengths or steps go through qpoch_finite.
    """
    v = as_value(x)
    if not isinstance(v, QMonomial) or n <= 0 or step < 1:
        return se.cap(qpoch_finite(v, n, prec, step), prec)
    c, e = v.coef, v.exp
    if c == 0:
        return se.one(max(prec, 1))
    cn, cd = c.numerator, c.denominator
    suffix = sum(min(0, e + step * i) for i in range(n))
    num, lo = [1], 0
    for i in range(n):
        f = e + step * i
        suffix -= min(0, f)
        z = [0] * abs(f)
        if f >= 0:
            num = [cd * a - cn * b for a, b in zip(num + z, z + num)]
        else:
            num = [cd * a - cn * b for a, b in zip(z + num, num + z)]
            lo += f
        del num[max(0, prec - suffix - lo):]
    return se._make(lo, num, cd ** n, prec)


def qpoch_infinite(x, prec):
    """(x;q)_inf truncated soundly at the requested precision."""
    if prec < 1:
        raise PrecisionError("qpoch_infinite needs precision >= 1")
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


def qpoch_multi(xs, prec, n=None):
    """Product of (x;q)_n over a list of arguments (n=None means infinite)."""
    deltas = []
    for x in xs:
        d = ord_of(as_value(x))
        deltas.append(negord(d, n if n is not None else (max(0, -d) if d is not None else 0)))
    total = sum(deltas)
    acc = None
    for x, dd in zip(xs, deltas):
        p = prec - (total - dd)
        f = qpoch_finite(x, n, p) if n is not None else qpoch_infinite(x, p)
        acc = f if acc is None else se.mul(acc, f)
    return acc if acc is not None else se.one(prec)


# -- theta functions ----------------------------------------------------------


def theta_partial(x, prec):
    """sum_{n>=0} (-1)^n q^(n(n-1)/2) x^n, formally convergent for every x."""
    if prec < 1:
        raise PrecisionError("theta_partial needs precision >= 1")
    v = as_value(x)
    if isinstance(v, QMonomial):
        c, e = v.coef, v.exp
        if c == 0:
            return se.one(prec)
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
        return se._from_entries(entries, prec)
    d = v._ord()
    w = prec + 2 * max(0, -d) + 2
    xpow = se.one(w)
    acc = None
    n = 0
    vertex = max(0, 1 - d)
    while True:
        bound = n * (n - 1) // 2 + n * d
        if n >= vertex and bound >= prec:
            break
        term = se.shift(xpow, n * (n - 1) // 2)
        if n % 2:
            term = se.neg(term)
        acc = term if acc is None else se.add(acc, term)
        xpow = se.mul(xpow, v)
        n += 1
    return se.cap(acc if acc is not None else se.zero(prec), prec)


def theta_full(x, prec):
    """The two-sided sum sum_{n in Z} (-1)^n q^(n(n-1)/2) x^n.

    Needs an invertible argument; equals (q, x, q/x; q)_inf by the triple
    product, which the test suite checks independently.
    """
    if prec < 1:
        raise PrecisionError("theta_full needs precision >= 1")
    v = as_value(x)
    if ord_of(v) is None:
        raise DomainError("theta_full needs an invertible (nonzero) argument")
    # The terms n = -k < 0 sum to theta_partial(q/x) - 1.
    if isinstance(v, QMonomial):
        qx = QMonomial(1 / v.coef, 1 - v.exp)
    else:
        qx = se.shift(se.invert(v), 1)
    return se.sub(se.add(theta_partial(v, prec), theta_partial(qx, prec)), se.one(prec))


# -- basic hypergeometric series ----------------------------------------------


def bhs(upper, lower, z, prec):
    """Evaluate the basic hypergeometric series 1+r phi s.

    ``upper`` has 1+r entries and ``lower`` has s; each term is

        prod (u;q)_k / ((q;q)_k prod (l;q)_k) * ((-1)^k q^C(k,2))^(s-r) * z^k.

    Terminates when an upper argument is the exact monomial q^-n (n >= 0)
    and otherwise runs until the mechanical term-order bound clears the
    target precision; if that bound cannot tend to infinity the series is
    formally divergent and an error is raised.
    """
    if prec < 1:
        raise PrecisionError("bhs needs precision >= 1")
    ups = [as_value(u) for u in upper]
    los = [as_value(l) for l in lower]
    zv = as_value(z)
    sr = len(los) - len(ups) + 1
    dz = ord_of(zv)
    if dz is None:
        return se.one(min(prec, zv.prec) if isinstance(zv, LaurentSeries) else prec)

    n_term = None
    for u in ups:
        if isinstance(u, QMonomial) and u.coef == 1 and u.exp <= 0:
            n = -u.exp
            n_term = n if n_term is None else min(n_term, n)

    dus = [ord_of(u) for u in ups]
    dls = [ord_of(l) for l in los]
    if n_term is None and (sr < 0 or (sr == 0 and dz <= 0)):
        raise FormalDivergenceError(
            "non-terminating series with s-r=%d and ord(z)=%d" % (sr, dz)
        )

    def bound(k):
        b = sr * (k * (k - 1) // 2) + k * dz
        for d in dus:
            b += negord(d, k)
        for d in dls:
            b -= negord(d, k)
        return b

    stab = max([0] + [max(0, -d) for d in dus + dls if d is not None])

    # Working precision: absorb any early dip of the term-precision chain.
    cum = 0
    dip = 0
    k_sim = n_term if n_term is not None else 2 * (prec + stab * stab) + 16
    for k in range(k_sim):
        step = dz + sr * k
        for d in dus:
            if d is not None:
                step += min(0, d + k)
        for d in dls:
            if d is not None:
                step -= min(0, d + k)
        cum += step
        if cum < dip:
            dip = cum
        if n_term is None and k >= stab and bound(k + 1) >= prec and sr * (k + 1) + dz >= 0:
            break
    w0 = prec - dip + 2

    t = se.one(w0)
    acc = t
    k = 0
    while True:
        nxt = k + 1
        if n_term is not None:
            if nxt > n_term:
                break
        elif nxt >= stab and bound(nxt) >= prec and sr * nxt + dz >= 0:
            break
        for u, d in zip(ups, dus):
            t = se.mul(t, _factor(t, u, d, k))
        t = _mul_value(t, zv)
        if sr:
            t = se.mul_monomial(t, Fraction(-1) ** sr, sr * k)
        t = se.divide(t, _factor(t, QMonomial(Fraction(1), 0), 0, nxt))
        for l, d in zip(los, dls):
            g = _factor(t, l, d, k)
            if g.is_zero:
                raise DegenerateParameterError(
                    "singular lower parameter: factor 1 - l*q^%d vanishes" % k
                )
            t = se.divide(t, g)
        acc = se.add(acc, t)
        k = nxt
    if n_term is not None:
        return acc
    return se.cap(acc, prec)
