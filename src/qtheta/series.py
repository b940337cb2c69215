"""Truncated formal Laurent series in q over exact rationals.

A series is a dense block of coefficients starting at ``min_exp`` together
with an absolute precision ``prec``: every coefficient of q^e with
e < prec is exactly represented (zero when outside the stored block).
Coefficients are kept as integers over one shared positive denominator,
which keeps ring operations in fast big-integer arithmetic; the public
accessors present them as :class:`fractions.Fraction`.

Precision rules (``ord`` is ``min_exp`` for a nonzero series and ``prec``
for a zero-to-precision one):

* ``add``:    result prec = min(x.prec, y.prec)
* ``mul``:    result prec = min(x.prec + ord(y), y.prec + ord(x))
* ``invert``: result prec = x.prec - 2*ord(x)
* ``shift``:  multiplication by the exact monomial q^k, prec + k

The zero-to-precision series stores no coefficients and carries only
``prec``.  Nonzero series never store leading or trailing zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import PrecisionError, SeriesZeroDivision

__all__ = [
    "LaurentSeries",
    "zero",
    "one",
    "monomial",
    "from_rational",
    "from_string",
    "add",
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


def _from_entries(entries, prec):
    """The series sum c*q^e over a {e: Fraction c} dict, at precision prec."""
    if not entries:
        return zero(prec)
    lo = min(entries)
    hi = max(entries)
    den = 1
    for c in entries.values():
        den = den // gcd(den, c.denominator) * c.denominator
    num = [0] * (hi - lo + 1)
    for e, c in entries.items():
        num[e - lo] = c.numerator * (den // c.denominator)
    return _make(lo, num, den, prec)


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
    prec = min(x.prec, y.prec)
    if not x._num and not y._num:
        return zero(prec)
    if not x._num:
        return _make(y.min_exp, list(y._num), y._den, prec)
    if not y._num:
        return _make(x.min_exp, list(x._num), x._den, prec)
    base = min(x.min_exp, y.min_exp)
    top = min(prec, max(x.min_exp + len(x._num), y.min_exp + len(y._num)))
    if top <= base:
        return zero(prec)
    g = gcd(x._den, y._den)
    den = x._den // g * y._den
    fx = den // x._den
    fy = den // y._den
    out = [0] * (top - base)
    off = x.min_exp - base
    for i, v in enumerate(x._num):
        j = off + i
        if j >= len(out):
            break
        out[j] += v * fx
    off = y.min_exp - base
    for i, v in enumerate(y._num):
        j = off + i
        if j >= len(out):
            break
        out[j] += v * fy
    return _make(base, out, den, prec)


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
    """x / y with result prec = min(x.prec - d, y.prec + ord(x) - 2d), d = ord(y)."""
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
    # Solve y * r = x coefficientwise.  Small leading coefficients use an
    # all-integer recurrence (r_t = D_t / y0^(t+1) scaled); big ones would
    # square every bit length that way, so they run over exact rationals
    # with per-step reduction instead.
    y0 = Y[0]
    if abs(y0) >> 32 == 0:
        y0p = [1] * (need + 1)
        for t in range(1, need + 1):
            y0p[t] = y0p[t - 1] * y0
        ys = [(i, Y[i] * y0p[i - 1]) for i in range(1, min(len(Y), need)) if Y[i]]
        D = [0] * need
        for t in range(need):
            s = X[t] * y0p[t] if t < len(X) else 0
            for i, c in ys:
                if i > t:
                    break
                s -= c * D[t - i]
            D[t] = s
        num = [y._den * D[t] * y0p[need - 1 - t] for t in range(need)]
        return _make(base, num, x._den * y0p[need], prec)
    inv_y0 = Fraction(y._den, y0)
    xs = Fraction(inv_y0, x._den)
    ys = [(i, Fraction(Y[i], y0)) for i in range(1, min(len(Y), need)) if Y[i]]
    r = [Fraction(0)] * need
    for t in range(need):
        s = X[t] * xs if t < len(X) else Fraction(0)
        for i, c in ys:
            if i > t:
                break
            s -= c * r[t - i]
        r[t] = s
    den = 1
    for c in r:
        den = den // gcd(den, c.denominator) * c.denominator
    num = [c.numerator * (den // c.denominator) for c in r]
    return _make(base, num, den, prec)


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

_TERM_RE = re.compile(
    r"""^(?:
          O\(q\^(?P<op>-?\d+)\)
        | (?P<coef>\d+(?:/\d+)?)(?:\*q(?:\^(?P<e1>-?\d+))?)?
        | q(?:\^(?P<e2>-?\d+))?
        )$""",
    re.VERBOSE,
)


def _split_terms(s):
    # Split on top-level + and -, keeping signs.  A '-' directly after '^'
    # belongs to an exponent, not a term separator.
    out = []
    cur = []
    sign = 1
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "+-" and cur and cur[-1] not in "^(":
            out.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        elif ch in "+-" and not "".join(cur).strip():
            sign = sign if ch == "+" else -sign
        else:
            cur.append(ch)
        i += 1
    out.append((sign, "".join(cur).strip()))
    return [(sg, t) for sg, t in out if t]


def from_string(s):
    """Parse the rendering produced by str(); inverse of the text form."""
    entries = {}
    prec = None
    for sign, term in _split_terms(s.replace(" ", "")):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError("unparseable series term: %r" % term)
        if m.group("op") is not None:
            prec = int(m.group("op"))
            continue
        if m.group("coef") is not None:
            c = Fraction(m.group("coef"))
            e = m.group("e1")
            e = int(e) if e is not None else (1 if "q" in term else 0)
            if "q" not in term:
                e = 0
        else:
            c = Fraction(1)
            e = int(m.group("e2")) if m.group("e2") is not None else 1
        entries[e] = entries.get(e, Fraction(0)) + sign * c
    if prec is None:
        raise ValueError("series text lacks an O(q^p) precision marker")
    return _from_entries(entries, prec)
