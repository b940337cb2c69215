"""Primitive q-functions over exact series arguments.

Every kernel takes a target precision.  Arguments may be exact values
(int, Fraction, :class:`QMonomial`, :class:`QRational`) or
:class:`LaurentSeries` values.
Exact arguments are embedded at whatever internal precision the requested
target demands, so results built purely from exact data always reach the
requested precision; series arguments propagate their own precision
through the ring rules and the result honestly reports what survived.

Infinite sums and products never stop on "term looks small": they stop
only once a mechanically derived lower bound on the q-order of all
remaining terms is at or above the target precision, and the result is
truncated to that target.  ``ratio_terms`` is the one such term loop,
and ``ratio_stop`` its stop.  ``ratio_sum`` runs them from t_0 = 1: bhs
is one call of it, and so are the partial theta function and, through
Euler's identity (x;q)_inf = sum_n (-1)^n q^C(n,2) x^n / (q;q)_n, the
infinite Pochhammer symbol at a series or N/D argument.  At an exact
monomial these two take ratio_stop's terms in one integer pass
(``_theta_sum``).  The P_m family
(``sums._pfamily``) and the DSL's sums call ``ratio_terms`` with their
own t_0.  Each sums its terms once, into one running block over one
running denominator (``series.add_all``), and normalizes the sum once.
``qpoch_capped`` is the one exact finite product; over a series or N/D
argument it is the last term of ``ratio_terms``.

A truncated sum builds each term only to the precision it keeps.  The
order bounds cum_k of ``ratio_stop`` say how far each step moves a
term's precision, so with a demand top_j on each term j, term k is capped
at cum_k + max_(j>=k) (top_j - cum_j): every later term made from it
still reaches its demand, and no coefficient below it changes.  The
demand is the target, or for a DSL term t_k*R_k the target less
ord(R_k).  This is "compute only what is needed" in the sense of van der
Hoeven's relaxed series, derived statically.

Exact arguments also choose the arithmetic.  There are two exact kinds:
the monomial c*q^e (QMonomial) and N(q)/D(q) with sparse integer
polynomials N and D (QRational), which the evaluator makes for any value
built from exact values.  A factor 1 - v*q^e with v = N/(s*D) is
F/(s*D) with the integer polynomial F = s*D - N*q^e.  On a raw term, a
coefficient block over one shared denominator, it is one sparse multiply
(``_times_sparse``) and one sparse exact divide (``_over_sparse``), and
the term is normalized once: that step is ``_exact_step``, every step of
``ratio_terms`` and the one ``sums._pfamily`` takes between shifted P_m
members; ``qpoch_capped`` takes the multiply.  For a monomial F has two
terms, and the multiply and divide are the two-term update and
recurrence.  Both build only the entries they keep: the update stops at
the cap, and a division whose terms reach past the block returns it
unchanged.  A division runs in integers, and scales the block by a
power of the divisor's lowest coefficient only from the first quotient
coefficient that needs it: a quotient with integer coefficients is not
scaled at all.  A series argument is N/s + O(q^R): the step applies the
exact N/s, with D = 1, and lowers the precision by the ring rules of
``series``, so its factors give a term the coefficients, precision and
errors that ring operations give it.  There is one term loop for every
argument kind.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

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
    "QRational",
    "as_value",
    "to_series",
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_multi",
    "theta_partial",
    "theta_full",
    "theta_combination",
    "bhs",
]


class QMonomial:
    """An exact monomial coef*q^exp; the zero argument is coef == 0.

    ``coef`` is always a Fraction: the constructor converts an int or
    other rational once and keeps a Fraction as it is.  Equality and hash
    read the numerator, the denominator and the exponent, all integers, so
    equal monomials built different ways key one memo entry.  Immutable by
    convention: nothing assigns to a monomial after it is built.
    """

    __slots__ = ("coef", "exp")

    def __init__(self, coef, exp=0):
        self.coef = coef if type(coef) is Fraction else Fraction(coef)
        self.exp = exp

    def __eq__(self, other):
        if not isinstance(other, QMonomial):
            return NotImplemented
        c, d = self.coef, other.coef
        return (self.exp == other.exp and c.numerator == d.numerator
                and c.denominator == d.denominator)

    def __hash__(self):
        c = self.coef
        return hash((c.numerator, c.denominator, self.exp))

    def __repr__(self):
        return "QMonomial(coef=%r, exp=%r)" % (self.coef, self.exp)


class QRational:
    """An exact value N(q)/D(q) that is not a monomial.

    ``num`` and ``den`` are sparse integer polynomials, ((exponent,
    coefficient), ...) lowest exponent first with no zero coefficient: N
    may have negative exponents, D has none and a positive constant term.
    N and D are coprime in Q[q] and their coefficients have no common
    factor, so the form is canonical: equal values are equal and hash
    equal, and a value can key a memo.  ``_exact`` makes every instance.
    Like QMonomial, a plain slotted class: a frozen dataclass costs each
    fresh import 0.7 ms, and its constructor, equality and hash cost more
    per value than the integers they read.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __eq__(self, other):
        return isinstance(other, QRational) and (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "QRational(num=%r, den=%r)" % (self.num, self.den)


_EXACT = (QMonomial, QRational)
_ONE = QMonomial(Fraction(1), 0)
_ZERO = QMonomial(Fraction(0), 0)


# -- sparse polynomials: ((exponent, coefficient), ...), lowest exponent first --


def _poly(terms):
    """The sparse polynomial sum of (exponent, coefficient) terms."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in out.items() if c))


def _poly_mul(a, b):
    return _poly((e + f, c * d) for e, c in a for f, d in b)


def _poly_shift(a, k):
    return tuple((e + k, c) for e, c in a)


def _dense(a):
    """The polynomial a, free of its q-power, as a dense integer list."""
    out = [0] * (a[-1][0] - a[0][0] + 1)
    for e, c in a:
        out[e - a[0][0]] = c
    return out


def _dense_mul(a, b):
    """The product of two dense coefficient lists, lowest first."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _primitive_part(a):
    """A nonzero dense integer list over the gcd of its entries."""
    g = gcd(*a)
    return [c // g for c in a]


def _prem(a, b):
    """A pseudo-remainder of dense integer lists a and b (lowest first):
    a times a power of b's leading coefficient, modulo b."""
    a, lb = list(a), b[-1]
    while len(a) >= len(b):
        la, k = a.pop(), len(a) - len(b) + 1
        a = [lb * c for c in a]
        for i, c in enumerate(b[:-1]):
            a[k + i] -= la * c
        while a and not a[-1]:
            a.pop()
    return a


def _exquo(a, b):
    """a / b for dense integer lists where b divides a in Z[q]."""
    a, quo = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(quo))):
        quo[k] = f = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= f * c
    return quo


def _exact(num, den, coprime=False):
    """The canonical exact value num/den of sparse integer polynomials (den != 0):
    a QMonomial for a quotient of two single terms, else a QRational.
    ``coprime`` says that num and den share no factor but q.  The gcd is
    a primitive remainder sequence over Z."""
    if not num:
        return _ZERO
    num, den = _poly_shift(num, -den[0][0]), _poly_shift(den, -den[0][0])
    if len(num) > 1 and len(den) > 1 and not coprime:
        a, b = _primitive_part(_dense(num)), _primitive_part(_dense(den))
        while len(b) > 1:
            a, b = b, _prem(a, b)
            b = b and _primitive_part(b)
        if not b and len(a) > 1:
            qn, qd = _exquo(_dense(num), a), _exquo(_dense(den), a)
            num = tuple((num[0][0] + e, c) for e, c in enumerate(qn) if c)
            den = tuple((e, c) for e, c in enumerate(qd) if c)
    cs = [c for _, c in num + den]
    g = gcd(*cs) * (1 if cs[len(num)] > 0 else -1)
    num = tuple((e, c // g) for (e, _), c in zip(num, cs))
    den = tuple((e, c // g) for (e, _), c in zip(den, cs[len(num):]))
    if len(num) == 1 and len(den) == 1:
        return QMonomial(Fraction(num[0][1], den[0][1]), num[0][0])
    return QRational(num, den)


def _parts(v):
    """(N, D) of an exact value as sparse integer polynomials; a series
    N/s + O(q^R) gives its stored block N over D = s."""
    if isinstance(v, QRational):
        return v.num, v.den
    if isinstance(v, LaurentSeries):
        return tuple((v.min_exp + i, c) for i, c in enumerate(v._num) if c), ((0, v._den),)
    c = v.coef
    return ((v.exp, c.numerator),), ((0, c.denominator),)


def _val_add(x, y):
    """x + y: a series sum at the precision of a series operand, else
    exact; monomials of one exponent (or a zero) add as QMonomials, with
    the exponent the evaluator has always given."""
    series = [v.prec for v in (x, y) if isinstance(v, LaurentSeries)]
    if series:
        return se.add(to_series(x, min(series)), to_series(y, min(series)))
    if isinstance(x, QMonomial) and isinstance(y, QMonomial):
        if x.coef == 0 or y.coef == 0 or x.exp == y.exp:
            return QMonomial(x.coef + y.coef, y.exp if x.coef == 0 else x.exp)
    (nx, dx), (ny, dy) = _parts(x), _parts(y)
    # (nx dy + ny dx) / (dx dy) shares no factor with a constant dx or dy.
    return _exact(_poly(_poly_mul(nx, dy) + _poly_mul(ny, dx)), _poly_mul(dx, dy),
                  len(dx) == 1 or len(dy) == 1)


def _val_inv(v):
    """1/v for a nonzero value; a series is inverted in the ring."""
    if isinstance(v, QMonomial):
        return QMonomial(1 / v.coef, -v.exp)
    if isinstance(v, LaurentSeries):
        return se.invert(v)
    return _exact(v.den, v.num, coprime=True)


def _val_ratio(nums, dens, coprime=False):
    """prod(nums) / prod(dens) for nonzero dens.  For exact values N and D
    are built with _poly_mul and normalized once (``coprime`` as in
    _exact); a series operand makes it the ring product."""
    if any(isinstance(v, LaurentSeries) for v in nums + dens):
        return reduce(_val_mul, nums + [_val_inv(v) for v in dens], _ONE)
    parts = [_parts(v) for v in nums] + [_parts(v)[::-1] for v in dens]
    return _exact(reduce(_poly_mul, [n for n, _ in parts], ((0, 1),)),
                  reduce(_poly_mul, [d for _, d in parts], ((0, 1),)), coprime)


def _val_pow(v, n):
    """v**n: exact for an exact v, in the ring for a series; an exact zero
    to a negative power is a DomainError."""
    if isinstance(v, LaurentSeries):
        return se.pow_int(v, n)
    if isinstance(v, QRational):
        return _val_ratio([v] * n, [], True) if n >= 0 else _val_ratio([], [v] * -n, True)
    if v.coef == 0:
        if n < 0:
            raise DomainError("zero raised to a negative power")
        return _ONE if n == 0 else v
    return QMonomial(v.coef ** n, v.exp * n)


def as_value(x):
    """Normalize an argument to an exact value (QMonomial, QRational) or a
    LaurentSeries.  Exact values and series come back as they are, the
    same object; any other number becomes QMonomial(x, 0)."""
    if isinstance(x, (QMonomial, QRational, LaurentSeries)):
        return x
    return QMonomial(x, 0)


def to_series(x, prec):
    """Materialize a value as a series; exact values embed at >= prec."""
    v = as_value(x)
    if isinstance(v, LaurentSeries):
        return v
    if isinstance(v, QRational):
        return _mul_value(se.one(max(1, prec - v.num[0][0])), v)
    if v.coef == 0:
        return se.zero(prec)
    return se.monomial(v.coef, v.exp, max(prec, v.exp + 1))


def ord_of(v):
    """q-order of a value, or None when it is zero (to precision)."""
    if isinstance(v, QMonomial):
        return v.exp if v.coef else None
    if isinstance(v, QRational):
        return v.num[0][0]
    return v.order()


def _val_shift(v, k):
    if isinstance(v, QMonomial):
        return QMonomial(v.coef, v.exp + k)
    if isinstance(v, QRational):
        return QRational(_poly_shift(v.num, k), v.den)
    return se.shift(v, k)


def _val_mul(x, y):
    if isinstance(x, QMonomial) and isinstance(y, QMonomial):
        c = x.coef * y.coef
        return QMonomial(c, x.exp + y.exp) if c else _ZERO
    if isinstance(x, LaurentSeries) or isinstance(y, LaurentSeries):
        t, v = (x, y) if isinstance(x, LaurentSeries) else (y, x)
        return _ZERO if isinstance(v, QMonomial) and v.coef == 0 else _mul_value(t, v)
    # A monomial factor shares no factor but q with the other's D.
    return _val_ratio([x, y], [], isinstance(x, QMonomial) or isinstance(y, QMonomial))


def _val_neg(v):
    if isinstance(v, QMonomial):
        return QMonomial(-v.coef, v.exp)
    if isinstance(v, QRational):
        return QRational(tuple((e, -c) for e, c in v.num), v.den)
    return se.neg(v)


def _mul_value(t, v):
    """Series t times value v; exact values multiply without precision loss."""
    if isinstance(v, QMonomial):
        if v.coef == 0:
            return se.zero(t.prec + v.exp)
        return se.mul_monomial(t, v.coef, v.exp)
    if isinstance(v, QRational):
        return _exact_step(t, (), (), 0, 0, _raw_z(v)[0], None)
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


def one_minus(v, k):
    """The factor 1 - v*q^k of a series v, of precision v.prec + k."""
    return se.sub(se.one(v.prec + k), se.shift(v, k))


def _check_poch_invertible(v, n, what):
    """Eagerly reject (v;q)_n denominators with a vanishing factor."""
    d = ord_of(v)
    if d is None or d > 0 or isinstance(v, QRational):
        # 1 - v*q^i of a QRational v, never a monomial, never vanishes.
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
        if one_minus(v, i).is_zero:
            raise DegenerateParameterError(
                "%s: Pochhammer factor vanishes to working precision" % what
            )


# -- q-shifted factorials -----------------------------------------------------


def _one_minus_poly(num, den, e):
    """den - num*q^e: the factor 1 - (num/den)*q^e times den, for sparse
    integer polynomials, with its zero terms dropped."""
    shifted = tuple((f + e, -c) for f, c in num)
    if not shifted or shifted[0][0] > den[-1][0]:
        return den + shifted
    if shifted[-1][0] < den[0][0]:
        return shifted + den
    return _poly(den + shifted)


def _split(poly):
    """A sparse polynomial as (e0, c0, rest): its lowest term c0*q^e0,
    and its other terms as (exponent - e0, coefficient); None for zero."""
    if not poly:
        return None
    (e0, c0), *rest = poly
    return e0, c0, tuple((e - e0, c) for e, c in rest)


def _times_sparse(num, lo, poly, top):
    """The block num at q^lo times the split polynomial poly, kept below
    q^top: out = c0*num, then out[e:] += c*num for each other term c*q^e,
    computed only for the kept entries.  For a factor cd - cn*q^e this is
    the two-term update num'[j] = cd*num[j] - cn*num[j-e].  Returns
    (out, lo')."""
    e0, c0, rest = poly
    lo += e0
    n = len(num)
    keep = max(0, min(n + (rest[-1][0] if rest else 0), top - lo))
    out = [c0 * a for a in num[:keep]]
    out += [0] * (keep - len(out))
    for e, c in rest:
        out[e:e + n] = [a + c * b for a, b in zip(out[e:e + n], num)]
    return out, lo


def _over_sparse(num, y0, rest):
    """num / (1 + sum_r (c_r/y0) q^(e_r)) to len(num) terms, for the terms
    rest = ((e_r, c_r), ...) of a split polynomial with lowest term y0, as
    (s, m) with quotient s/y0^m.  s_j = num_j - (sum_r c_r*s_(j-e_r))/y0
    runs in integers while y0 divides the sum (-cn*s_(j-e) for
    cd - cn*q^e), so m = 0 exactly when every quotient coefficient u_i is
    an integer.  At the first j where y0 does not, the block is scaled
    once by y0^m, m = (len(num)-1-j)//e_1 + 1, and the recurrence goes on
    untested.  It is exact: u_i is an integer for i < j, and for i >= j
    its denominator divides y0^((i-j)//e_1 + 1), by induction on
    u_i = num_i - sum_r (c_r/y0)*u_(i-e_r), so every s_(i-e_r) read is a
    multiple of y0.  When no term reaches back into num the quotient is
    num itself, with m = 0."""
    n = len(num)
    if not rest or rest[0][0] >= n:
        return num, 0
    e = rest[0][0]
    s = list(num)
    if len(rest) == 1:
        cn = -rest[0][1]
        if y0 == 1:
            for j in range(e, n):
                s[j] += cn * s[j - e]
            return s, 0
        for j in range(e, n):
            v = cn * s[j - e]
            if v % y0:
                break
            s[j] += v // y0
        else:
            return s, 0
        m = (n - 1 - j) // e + 1
        c = y0 ** m
        s = [a * c for a in s]
        for j in range(j, n):
            s[j] += cn * (s[j - e] // y0)
        return s, m
    m = 0
    for j in range(e, n):
        v = 0
        for f, cf in rest:
            if f > j:
                break
            v += cf * s[j - f]
        if not m and v % y0:
            m = (n - 1 - j) // e + 1
            c = y0 ** m
            s = [a * c for a in s]
            v *= c
        s[j] -= v // y0
    return s, m


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
    p = v.prec if isinstance(v, LaurentSeries) else max(prec, 1) - sum(
        min(0, ord_of(v) + step * i) for i in range(n))
    *_, acc = ratio_terms([(v, step, 0)], [], _ONE, 0, se.one(p), n + 1)
    return acc


def qpoch_capped(x, n, prec, step=1):
    """(x;q^step)_n truncated to ``prec`` while it is built.

    The one exact product.  For exact x = c*q^e each factor 1 - c*q^f is a
    two-term integer update num'[j] = cd*num[j] - cn*num[j-f] over the
    shared denominator cd^n; before the next factor every exponent at or
    above prec - suffix is dropped, where suffix <= 0 is the q-order the
    remaining factors can still add.  Other arguments (series, QRational),
    empty products and invalid lengths or steps go through qpoch_finite.
    """
    v = as_value(x)
    if not isinstance(v, QMonomial) or n <= 0 or step < 1:
        return se.cap(qpoch_finite(v, n, prec, step), prec)
    if v.coef == 0:
        return se.one(max(prec, 1))
    fs, cd, _, _ = _raw_factor(v, step, 0, n)
    suffix = sum(min(0, v.exp + step * i) for i in range(n))
    num, lo = [1], 0
    for i, f in enumerate(fs):
        suffix -= min(0, v.exp + step * i)
        if f is None:
            return se.zero(prec)
        num, lo = _times_sparse(num, lo, f, prec - suffix)
    return se._make(lo, num, cd ** n, prec)


_EULER = [(_ONE, 1, 1, "(q;q)_n")]


def _theta_sum(x, den, prec, what):
    """ratio_sum([], den, x, 1, prec): theta for den [], Euler's sum for
    den _EULER.  Term k is (-x)^k q^C(k,2), over (q;q)_k in Euler's sum.

    An exact nonzero monomial x = c*q^e takes one integer pass over
    ratio_stop's n terms: term k is (-c)^k at q^cum_k, cum_k = k*e +
    C(k,2), and all go into one block over cd^(n-1), where terms of one
    exponent add, which is normalized once.  Euler's sum adds them last
    first (Horner's rule): the block, which then holds the terms j > k
    over (1 - q^(k+2))...(1 - q^j), is divided by 1 - q^(k+1) in place,
    block[i] += block[i-k-1], before term k goes in.  Series and N/D
    arguments run ratio_sum.
    """
    if prec < 1:
        raise PrecisionError("%s needs precision >= 1" % what)
    v = as_value(x)
    if isinstance(v, QMonomial) and v.coef == 0:
        return se.one(prec)
    if ord_of(v) is None:
        # A term n >= 1 of x = O(q^P) is O(q^(nP + n(n-1)/2)), lowest at P - theta_dip(P+1).
        return se.add(se.one(prec), se.zero(v.prec - theta_dip(v.prec + 1)))
    if not isinstance(v, QMonomial):
        return ratio_sum([], den, v, 1, prec)
    cums = ratio_stop([], den, v, 1, prec)
    n, lo = len(cums), min(cums)
    cn, cd = -v.coef.numerator, v.coef.denominator
    out, w, first = [0] * (prec - lo), cn ** (n - 1), prec - lo
    for k in reversed(range(n)):
        if den:
            for i in range(first + k + 1, prec - lo):
                out[i] += out[i - k - 1]
        first = min(first, cums[k] - lo)
        out[cums[k] - lo] += w
        w = w // cn * cd
    return se._make(lo, out, cd ** (n - 1), prec)


def qpoch_infinite(x, prec):
    """(x;q)_inf truncated soundly at the requested precision.

    Euler's identity (x;q)_inf = sum_n (-1)^n q^C(n,2) x^n / (q;q)_n makes
    it the ratio_sum with t_(n+1)/t_n = -x q^n / (1 - q^(n+1)).  An exact
    monomial x sums it in one integer pass; series and N/D arguments run
    ratio_sum (see _theta_sum).  Its terms have theta's orders, so an x
    that is zero to O(q^P) gives theta's 1 + O(q^(P - theta_dip(P+1))).
    """
    return _theta_sum(x, _EULER, prec, "qpoch_infinite")


def qpoch_multi(xs, prec):
    """Product of (x;q)_inf over a list of arguments."""
    ords = [ord_of(as_value(x)) for x in xs]
    deltas = [0 if d is None else negord(d, -d) for d in ords]
    total = sum(deltas)
    acc = None
    for x, dd in zip(xs, deltas):
        f = qpoch_infinite(x, prec - (total - dd))
        acc = f if acc is None else se.mul(acc, f)
    return acc if acc is not None else se.one(prec)


# -- theta functions ----------------------------------------------------------


def theta_partial(x, prec):
    """sum_{n>=0} (-1)^n q^(n(n-1)/2) x^n, formally convergent for every x:
    the ratio_sum with t_(n+1)/t_n = -x q^n.  An exact monomial x sums it
    in one integer pass; series and N/D arguments run ratio_sum (see
    _theta_sum)."""
    return _theta_sum(x, [], prec, "theta_partial")


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
    qx = _val_shift(_val_inv(v), 1)
    return se.sub(se.add(theta_partial(v, prec), theta_partial(qx, prec)), se.one(prec))


def theta_combination(terms, prec):
    """sum sign*c*theta(y) over the (sign, c, y) terms, to O(q^prec): each
    theta is taken at max(1, prec - ord c) and multiplied by _mul_value, so
    an exact c loses nothing and a series c passes on its own precision."""
    def products():
        yield se.zero(prec)
        for sign, c, y in terms:
            t = _mul_value(theta_partial(y, max(1, prec - (ord_of(c) or 0))), c)
            yield t if sign > 0 else se.neg(t)

    return se.cap(se.add_all(products()), prec)


# -- basic hypergeometric series ----------------------------------------------


def _lift(v):
    """How far the denominator factor 1 - v*q^e, e = -ord(v), rises above
    its order bound min(0, ord(v) + e) = 0: its order, which is above 0
    when v is a series or a QRational with leading coefficient 1.  A factor
    that vanishes to precision counts 0; ratio_terms raises on it."""
    d = ord_of(v)
    if isinstance(v, QMonomial) or d is None or (
            v.num[0][1] != v.den[0][1] if isinstance(v, QRational) else v.coeff(d) != 1):
        return 0
    return ord_of(_val_add(_ONE, _val_neg(_val_shift(v, -d)))) or 0


def ratio_stop(num, den, z, sr, prec=None, least=0):
    """The order bounds cum_k of the terms of ratio_terms: at least
    ``least`` of them, and given ``prec``, on to the first settled k with
    cum_k >= prec, which the caller makes sure exists.  A sum stopped
    there has n = len(result) terms, whose lowest cum_k is the dip.

    step(k) bounds the order the k-th ratio adds from below, so cum_k, the
    sum of step(0..k-1), bounds ord(t_k), and a step moves a term's
    precision by at least step(k).  A denominator factor 1 - v*q^e counts
    min(0, ord(v) + e), or its true order where that is higher (_lift).
    From stab on no factor has negative order, and past stab no factor
    counts at all: step(k) = ord(z) + sr*k, which never falls again.
    k is settled when k >= stab and step(k) >= 0, so cum never falls
    after k.
    """
    dz = ord_of(z)
    signed = ([(1, i, j, ord_of(v), 0) for v, i, j in num]
              + [(-1, i, j, ord_of(v), _lift(v)) for v, i, j, _ in den])
    stab = max([0] + [-((d + j) // i) for _, i, j, d, _ in signed if d is not None])
    cums, cum, k = [], 0, 0
    while True:
        step = dz + sr * k
        if k <= stab:
            step += sum(s * min(0, (d or 0) + i * k + j) - (x if x and i * k + j == -d else 0)
                        for s, i, j, d, x in signed)
        if k >= least and (prec is None or k >= stab and step >= 0 and cum >= prec):
            return cums
        cums.append(cum)
        cum += step
        k += 1


def ratio_terms(num, den, z, sr, t0, n, top=None, cums=None):
    """Yield t_0 = t0, t_1, ..., t_(n-1) (t_0 alone when n < 2), where
    t_(k+1)/t_k = z (-1)^sr q^(sr*k) N_k/D_k as in ratio_sum.

    Given ``top``, the list of the precision top_k each term k < n must
    reach (None for none), and ``cums``, the list of its cum_k (see
    ratio_stop), term k is built only to cap_k = cum_k +
    max_(k<=j<n) (top_j - cum_j), when its own is higher: a term j >= k
    made from the capped t_k moves by at least cum_j - cum_k, so every
    term still reaches its demand, and no coefficient below it changes.
    For one top this is top + cum_k - min_(k<=j<n) cum_j; the suffix
    covers a cum that falls before it settles.  A sum truncated to its
    target passes the target for every term, and a DSL sum with a
    residual R_k passes the target less ord(R_k) for term k; a
    terminating sum, whose precision is the minimum over its terms,
    passes none.

    Each step is one _exact_step, for exact and series values alike: a
    series is N/s + O(q^R), so the terms, precisions and errors are those
    of the series ring operations.
    """
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
    num, den = _raw_factors(num, den, n - 1)
    z, shift = _raw_z(z, -1 if sr % 2 else 1)
    yield t0
    for k in range(n - 1):
        t0 = _exact_step(t0, num, den, k, shift + sr * k, z, caps[k + 1])
        yield t0


def _primitive(den):
    """(s, D) with den = s*D: the content s and the primitive D, split, or
    None for a constant den."""
    s = gcd(*(c for _, c in den))
    return s, _split(tuple((e, c // s) for e, c in den)) if len(den) > 1 else None


def _raw_factor(v, i, j, n):
    """(F, s, D, R) for the factor 1 - v*q^(i*k+j) of a value v = N/(s*D),
    nonzero if exact, D primitive: F[k] is sD - N*q^(i*k+j), split (None
    for zero), for k < n, and D is split, or None for D = 1.  R is None
    for an exact v; a series is N/s + O(q^R) (_parts), with D = 1."""
    if isinstance(v, QMonomial):
        cn, cd = v.coef.numerator, v.coef.denominator
        return [(0, cd, ((e, -cn),)) if e > 0 else (e, -cn, ((-e, cd),)) if e
                else (0, cd - cn, ()) if cd != cn else None
                for e in range(v.exp + j, v.exp + j + i * n, i)], cd, None, None
    N, den = _parts(v)
    return ([_split(_one_minus_poly(N, den, i * k + j)) for k in range(n)],
            *_primitive(den), v.prec if isinstance(v, LaurentSeries) else None)


def _raw_factors(num, den, n):
    """The factor lists of ratio_terms as the raw tuples of _exact_step
    for steps k < n: (F, s, D, R, i, j) for 1 - v*q^(i*k+j) (see
    _raw_factor), and (F, s, D, R, what, i, j) in ``den``.  A polynomial
    D that a numerator and a denominator factor share cancels, once, and
    both carry None.  An exact zero value is the factor 1 and is left
    out."""
    num = [_raw_factor(v, i, j, n) + (i, j) for v, i, j in num
           if not isinstance(v, QMonomial) or v.coef]
    den = [_raw_factor(v, i, j, n) + (what, i, j) for v, i, j, what in den
           if not isinstance(v, QMonomial) or v.coef]
    free = [f[2] for f in den if f[2]]
    for a, f in enumerate(num if free else ()):
        if f[2] in free:
            free.remove(f[2])
            b = next(b for b, g in enumerate(den) if g[2] == f[2])
            num[a] = f[:2] + (None,) + f[3:]
            den[b] = den[b][:2] + (None,) + den[b][3:]
    return num, den


def _raw_z(z, sign=1):
    """sign*z as the (c, N, s, D, R) of _exact_step, and an exponent: for
    a monomial its coefficient numerator c, N None and its exponent; else
    N split and 0.  z = N/(s*D) and R as in _raw_factor; a series z is
    nonzero."""
    if isinstance(z, QMonomial):
        return (sign * z.coef.numerator, None, z.coef.denominator, None, None), z.exp
    N, den = _parts(z)
    return (None, _split(tuple((e, sign * c) for e, c in N)), *_primitive(den),
            z.prec if isinstance(z, LaurentSeries) else None), 0


def _series_prec(r):
    """r, the precision of a series factor 1 - v*q^e; its 1 needs r > 0."""
    if r <= 0:
        raise PrecisionError("constant term not representable at precision %d" % r)
    return r


def _over_poly(T, P, lo, D, poly):
    """The block T at q^lo over D, of precision P, divided by the split
    polynomial poly (lowest term y0 > 0 at q^0): (T', D')."""
    T += [0] * (P - lo - len(T))
    T, m = _over_sparse(T, poly[1], poly[2])
    return T, D * poly[1] ** (m + 1)


def _exact_step(t, num, den, k, shift, z, cap):
    """Step k of a ratio on the raw term (lo, T, D, P) of t: t times the
    factors of ``num``, times z q^shift, over the factors of ``den``
    (_raw_factors' lists; z from _raw_z), with the precision lowered to
    ``cap`` (None: not lowered).  Each factor 1 - v*q^e with v = N/(s*D)
    is F/(sD), F = sD - N*q^e: one sparse multiply of T by F or D, and one
    sparse exact divide by D or F, with no divide for a D of 1 or a
    cancelled one; for a monomial v they are the two-term update and
    recurrence of _times_sparse and _over_sparse.  With f0 the lowest
    exponent of F, a multiply moves P to P + f0 and a divide to P - f0.
    A series v or z is N/s + O(q^R), so F/s is known to O(q^r),
    r = R + e, and P is at most r + ord t after a multiply and
    r + ord t - 2 f0 after a divide, as in series; ord t is lo, or P when
    T is empty, as T[0] is never 0.  A factor that vanishes (to O(q^r))
    makes the term zero in the numerator, to P + 4 + max(0, ord t) if
    exact and r + ord t if a series, and raises in the denominator; a
    series factor with r <= 0 raises PrecisionError.  Normalized once."""
    lo, T, D, P = t.min_exp, list(t._num), t._den, t.prec
    for F, s, dp, R, i, j in num:
        f = F[k]
        if R is not None:
            r = _series_prec(R + i * k + j) + (lo if T else P)
            if f is None:
                P, T = r, []
                continue
            P = min(P, r - f[0])
        elif f is None:
            P += 4 + max(0, lo if T else P)
            T = []
            continue
        if T:
            T, lo = _times_sparse(T, lo, f, P + f[0])
            D *= s
        P += f[0]
        if dp and T:
            T, D = _over_poly(T, P, lo, D, dp)
    zc, zn, zs, zd, zr = z
    lo += shift
    P += shift
    if zn is None:
        if zc != 1:
            T = [zc * a for a in T] if zc else []
    else:
        if zr is not None:
            P = min(P, zr + (lo if T else P) - zn[0])
        if T:
            T, lo = _times_sparse(T, lo, zn, P + zn[0])
        P += zn[0]
    D *= zs
    if zd and T:
        T, D = _over_poly(T, P, lo, D, zd)
    for F, s, dp, R, what, i, j in den:
        f = F[k]
        if R is not None:
            r = _series_prec(R + i * k + j) + (lo if T else P)
            if f:
                P = min(P, r - f[0])
        if f is None:
            raise DegenerateParameterError(
                "%s: factor 1 - v*q^%d vanishes" % (what, i * k + j))
        # sD/f = q^-e (s/y0) D / (f/(y0 q^e)), with y0 q^e the lowest term of f.
        e, y0, rest = f
        lo -= e
        P -= e
        if not T:
            continue
        if rest:
            T += [0] * (P - lo - len(T))
            T, m = _over_sparse(T, y0, rest)
            D *= y0 ** m
        if dp:
            T = _times_sparse(T, lo, dp, P)[0]
        if s != y0:
            T = [s * a for a in T]
            D *= y0
    if cap is not None:
        P = min(P, cap)
    return se._make(lo, T, D, P)


_RAW_ONE = _raw_z(_ONE)[0]


def ratio_sum(num, den, z, sr, prec, n_term=None):
    """sum_k t_k with t_0 = 1 and t_(k+1)/t_k = z (-1)^sr q^(sr*k) N_k/D_k.

    N_k and D_k multiply 1 - v q^(i*k+j) over ``num`` (v, i, j) and ``den``
    (v, i, j, what); i >= 1, j >= 0, v and z are values from as_value, z
    is nonzero, and ``what`` names a vanishing denominator factor in the
    error.

    Given ``n_term`` the sum is t_0..t_(n_term), uncapped; otherwise it
    stops as ratio_stop says and is truncated to prec.  Terms start at
    precision prec - dip + 2, where dip <= 0 is the lowest cum_k of a
    summed term (see ratio_stop).  The terms come from ratio_terms, on
    raw integers for exact and series values alike (a series is
    N/s + O(q^R)).  A truncated sum asks ratio_terms for each term only
    to the precision it keeps (``top`` = prec), so its last term, capped
    at prec, already truncates the sum.  A terminating sum passes no
    cap: its precision is the minimum over its terms, which a cap could
    move.  The terms are summed once over one running denominator by
    series.add_all, as they are made, and the sum is normalized once.
    """
    cums = (ratio_stop(num, den, z, sr, prec) if n_term is None
            else ratio_stop(num, den, z, sr, least=n_term + 1))
    t0 = se.one(prec - min(cums, default=0) + 2)
    return se.add_all(ratio_terms(num, den, z, sr, t0, len(cums),
                                  [prec] * len(cums) if n_term is None else None, cums))


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

    n_term = min((-u.exp for u in ups
                  if isinstance(u, QMonomial) and u.coef == 1 and u.exp <= 0), default=None)
    if n_term is None and (sr < 0 or (sr == 0 and dz <= 0)):
        raise FormalDivergenceError(
            "non-terminating series with s-r=%d and ord(z)=%d" % (sr, dz)
        )
    return ratio_sum(
        [(u, 1, 0) for u in ups],
        [(_ONE, 1, 1, "bhs: (q;q)_k")]
        + [(l, 1, 0, "singular lower parameter") for l in los],
        zv, sr, prec, n_term,
    )
