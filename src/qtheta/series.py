"""Truncated formal Laurent series in q over exact rationals.

A series is a dense block of coefficients starting at ``min_exp`` together
with an absolute precision ``prec``: every coefficient of q^e with
e < prec is exactly represented (zero when outside the stored block).
Coefficients are kept as integers over one shared positive denominator,
which keeps ring operations in fast big-integer arithmetic; the public
accessors present them as :class:`fractions.Fraction`.

Precision rules (``ord`` is ``min_exp`` for a nonzero series and ``prec``
for a zero-to-precision one):

* ``add_all``: result prec = min over the terms; one running block over
  the lcm of the denominators, normalized once
* ``add``:    ``add_all`` of the two terms, result prec = min(x.prec, y.prec)
* ``mul``:    result prec = min(x.prec + ord(y), y.prec + ord(x))
* ``divide``: result prec = min(x.prec - d, y.prec + ord(x) - 2d), d = ord(y)
* ``invert``: result prec = x.prec - 2*ord(x)
* ``shift``:  multiplication by the exact monomial q^k, prec + k

The zero-to-precision series stores no coefficients and carries only
``prec``.  Nonzero series never store leading or trailing zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ParseError, PrecisionError, QThetaError, SeriesZeroDivision

__all__ = [
    "LaurentSeries",
    "zero",
    "one",
    "monomial",
    "from_rational",
    "from_string",
    "add",
    "add_all",
    "sub",
    "neg",
    "mul",
    "scale",
    "shift",
    "invert",
    "divide",
    "truncate",
    "pow_int",
    "eq_to_prec",
]


class LaurentSeries:
    __slots__ = ("min_exp", "prec", "_num", "_den")

    def __init__(self, min_exp, num, den, prec):
        # Trusted raw constructor; use the module factories for public input.
        self.min_exp = min_exp
        self._num = num
        self._den = den
        self.prec = prec

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        """True when the series is zero to its precision."""
        return not self._num

    def order(self):
        """Exponent of the lowest nonzero coefficient, or None if zero."""
        return self.min_exp if self._num else None

    def _ord(self):
        # Order used by the precision formulas: prec for a zero series.
        return self.min_exp if self._num else self.prec

    def coeff(self, e):
        """Exact coefficient of q^e.  Requires e < prec."""
        if e >= self.prec:
            raise PrecisionError(
                "coefficient of q^%d requested but precision is O(q^%d)" % (e, self.prec)
            )
        i = e - self.min_exp
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def terms(self):
        """Iterate (exponent, Fraction) over the stored nonzero terms."""
        for i, v in enumerate(self._num):
            if v:
                yield self.min_exp + i, Fraction(v, self._den)

    @property
    def coefficients(self):
        """Stored coefficient block as Fractions (spec view of the data)."""
        return tuple(Fraction(v, self._den) for v in self._num)

    def constant_value(self):
        """The series as an exact rational if it is a bare constant, else None."""
        if not self._num:
            return Fraction(0) if self.prec > 0 else None
        if self.min_exp == 0 and len(self._num) == 1:
            return Fraction(self._num[0], self._den)
        return None

    # -- arithmetic (delegates to module functions) ------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.prec))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self.prec))

    def __rsub__(self, other):
        return sub(_coerce(other, self.prec), self)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return mul(self, other)
        return scale(self, Fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return divide(self, other)
        return scale(self, 1 / Fraction(other))

    def __rtruediv__(self, other):
        return scale(invert(self), Fraction(other))

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_int(self, n)

    def shift(self, k):
        return shift(self, k)

    def scale(self, c):
        return scale(self, c)

    def invert(self):
        return invert(self)

    def truncate(self, p):
        return truncate(self, p)

    # -- equality is structural; use eq_to_prec for mathematical equality --

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.min_exp == other.min_exp
            and self.prec == other.prec
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        return hash((self.min_exp, self.prec, self._num, self._den))

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        parts = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                p = "q" if e == 1 else "q^%d" % e
                body = p if mag == 1 else "%s*%s" % (mag, p)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        parts.append(("+ " if parts else "") + "O(q^%d)" % self.prec)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentSeries(%s)" % self


# -- construction -----------------------------------------------------------


def _make(min_exp, num, den, prec):
    """Normalize to canonical form: clip beyond prec, trim, reduce content."""
    if den < 0:
        den = -den
        num = [-v for v in num]
    keep = prec - min_exp
    if keep < len(num):
        num = num[: max(keep, 0)]
    lo = 0
    n = len(num)
    while lo < n and num[lo] == 0:
        lo += 1
    hi = n
    while hi > lo and num[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return LaurentSeries(prec, (), 1, prec)
    num = num[lo:hi]
    min_exp += lo
    g = den
    for v in num:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return LaurentSeries(min_exp, tuple(num), den, prec)


def zero(prec):
    """The zero-to-precision series O(q^prec)."""
    return LaurentSeries(prec, (), 1, prec)


def from_rational(c, prec):
    """The constant series c + O(q^prec)."""
    c = Fraction(c)
    if c == 0:
        return zero(prec)
    if prec <= 0:
        raise PrecisionError("constant term not representable at precision %d" % prec)
    return LaurentSeries(0, (c.numerator,), c.denominator, prec)


def one(prec):
    return from_rational(1, prec)


def monomial(c, e, prec):
    """The series c*q^e + O(q^prec).  Requires prec > e."""
    c = Fraction(c)
    if c == 0:
        return zero(prec)
    if e >= prec:
        raise PrecisionError("monomial q^%d not representable at precision %d" % (e, prec))
    return LaurentSeries(e, (c.numerator,), c.denominator, prec)


def _coerce(x, prec):
    if isinstance(x, LaurentSeries):
        return x
    return from_rational(Fraction(x), prec)


# -- ring operations ----------------------------------------------------------


def add(x, y):
    return add_all((x, y))


def add_all(xs, default=None):
    """The sum of an iterable of series, streamed into one running block.

    The block sits over the lcm of the denominators seen so far and is
    clipped at the running precision, the minimum over the terms; it is
    normalized once, and as the normal form is canonical the result equals
    ``functools.reduce(add, xs)``.
    An empty iterable gives ``default``, or raises ValueError without one.
    """
    prec = None
    lo, out, den = 0, [], 1
    for x in xs:
        if prec is None or x.prec < prec:
            prec = x.prec
            del out[max(0, prec - lo):]
        if not x._num or x.min_exp >= prec:
            continue
        xd = x._den
        if den % xd:
            f = xd // gcd(den, xd)
            out = [v * f for v in out]
            den *= f
        fx = den // xd
        xe = x.min_exp
        if not out:
            lo = xe
        elif xe < lo:
            out[:0] = [0] * (lo - xe)
            lo = xe
        seg = x._num[: prec - xe]
        a = xe - lo
        b = a + len(seg)
        if b > len(out):
            out += [0] * (b - len(out))
        if fx == 1:
            out[a:b] = [s + v for s, v in zip(out[a:b], seg)]
        else:
            out[a:b] = [s + v * fx for s, v in zip(out[a:b], seg)]
    if prec is None:
        if default is None:
            raise ValueError("add_all() of an empty iterable with no default")
        return default
    return _make(lo, out, den, prec)


def neg(x):
    return LaurentSeries(x.min_exp, tuple(-v for v in x._num), x._den, x.prec)


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    prec = min(x.prec + y._ord(), y.prec + x._ord())
    if not x._num or not y._num:
        return zero(prec)
    base = x.min_exp + y.min_exp
    need = prec - base
    if need <= 0:
        return zero(prec)
    a, b = x._num, y._num
    if len(a) > len(b):
        a, b = b, a
    out = [0] * min(need, len(a) + len(b) - 1)
    top = len(out)
    for i, c in enumerate(a):
        if i >= top:
            break
        if not c:
            continue
        jmax = min(len(b), top - i)
        for j in range(jmax):
            out[i + j] += c * b[j]
    return _make(base, out, x._den * y._den, prec)


def scale(x, c):
    """Multiply by an exact rational scalar; precision is unchanged."""
    c = Fraction(c)
    if c == 0 or not x._num:
        return zero(x.prec)
    return _make(x.min_exp, [v * c.numerator for v in x._num], x._den * c.denominator, x.prec)


def shift(x, k):
    """Multiply by the exact monomial q^k: exponents and precision move by k."""
    return LaurentSeries(x.min_exp + k, x._num, x._den, x.prec + k)


def mul_monomial(x, c, e):
    """Exact multiplication by c*q^e (scale then shift)."""
    if c == 1:
        return shift(x, e)
    return shift(scale(x, c), e)


def truncate(x, p):
    """Lower the precision to p <= x.prec, discarding higher stored terms."""
    if p > x.prec:
        raise PrecisionError("cannot raise precision from O(q^%d) to O(q^%d)" % (x.prec, p))
    if p == x.prec:
        return x
    return _make(x.min_exp, list(x._num), x._den, p)


def cap(x, p):
    """Truncate to min(p, x.prec); used by infinite sums to stay sound."""
    return truncate(x, min(p, x.prec))


def divide(x, y):
    """x / y with result prec = min(x.prec - d, y.prec + ord(x) - 2d), d = ord(y).

    Computed by one integer recurrence whose quotient coefficients U[t]/R
    share a running common denominator R.
    """
    if not y._num:
        raise SeriesZeroDivision("division by a series that is zero to O(q^%d)" % y.prec)
    dy = y.min_exp
    prec = min(x.prec - dy, y.prec + x._ord() - 2 * dy)
    if not x._num:
        return zero(prec)
    base = x.min_exp - dy
    need = prec - base
    if need <= 0:
        return zero(prec)
    X = x._num
    Y = y._num
    # Solve Y * u = X on the stored numerators, u_t = U[t] / R.  Step t sets
    # s = X_t R - sum_i Y_i U[t-i], so U[t] = s / y0.  When y0 does not
    # divide s, R grows by y0 / gcd(s, y0), which makes it (up to sign) the
    # lcm of R and u_t's reduced denominator; _make moves the sign.
    y0 = Y[0]
    ys = [(i, Y[i]) for i in range(1, min(len(Y), need)) if Y[i]]
    R = 1
    U = []
    for t in range(need):
        s = X[t] * R if t < len(X) else 0
        for i, c in ys:
            if i > t:
                break
            s -= c * U[t - i]
        u, rem = divmod(s, y0)
        if rem:
            g = gcd(rem, y0)
            f = y0 // g
            U = [v * f for v in U]
            R *= f
            u = s // g
        U.append(u)
    return _make(base, [y._den * v for v in U], x._den * R, prec)


def invert(x):
    """Multiplicative inverse; result prec = x.prec - 2*ord(x)."""
    if not x._num:
        raise SeriesZeroDivision("inversion of a series that is zero to O(q^%d)" % x.prec)
    return divide(one(x.prec - x.min_exp), x)


def pow_int(x, n):
    """x**n by binary exponentiation; n < 0 inverts first."""
    if n == 0:
        return one(x.prec)
    if n < 0:
        return pow_int(invert(x), -n)
    acc = None
    sq = x
    while n:
        if n & 1:
            acc = sq if acc is None else mul(acc, sq)
        n >>= 1
        if n:
            sq = mul(sq, sq)
    return acc


def eq_to_prec(x, y):
    """(x equals y to joint precision, joint precision)."""
    d = sub(x, y)
    return d.is_zero, min(x.prec, y.prec)


# -- round-trippable text form ------------------------------------------------

_MARKER = re.compile(r"(?:(.*)\+)?\s*O\(q\^(-?[0-9]+)\)\s*", re.S)


def from_string(s):
    """Parse the rendering produced by str(); inverse of the text form.

    The text is a sum of parameter-free ``dsl`` terms such as 3/2*q^-1,
    then '+ O(q^p)'.  Each term is parsed and evaluated on its own, so a
    long series does not nest deeper than dsl.MAX_DEPTH.  Raises ValueError
    on anything else.
    """
    from . import dsl  # dsl evaluates through this module

    m = _MARKER.fullmatch(s)
    if m is None:
        raise ValueError("series text lacks a final '+ O(q^p)' precision marker: %r" % s)
    acc = zero(int(m.group(2)))
    if m.group(1) is None:
        return acc
    try:
        p = dsl._Parser(m.group(1))
        op = "+"
        while op != "EOF":
            term = dsl.evaluate(p.check(p.term()), {}, acc.prec)
            acc = add(acc, term) if op == "+" else sub(acc, term)
            op, word, pos = p.take()
            if op not in ("+", "-", "EOF"):
                raise ParseError("expected '+' or '-', found %r" % word, pos, *p.src)
    except QThetaError as exc:
        raise ValueError("unparseable series text %r: %s" % (s, exc)) from None
    return acc
