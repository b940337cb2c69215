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
truncated to that target.  ``ratio_terms`` is the one such term loop,
and ``ratio_stop`` its stop.  ``ratio_sum`` runs them from t_0 = 1: bhs,
the partial theta function and, through Euler's identity
(x;q)_inf = sum_n (-1)^n q^C(n,2) x^n / (q;q)_n, the infinite
Pochhammer symbol are each one call of it.  The P_m family
(``sums._pfamily``) and the DSL's sums call ``ratio_terms`` with their
own t_0.  Each sums its terms once, into one running block over one
running denominator (``series.add_all``), and normalizes the sum once.
``qpoch_capped`` is the one exact finite product; over a series argument
it is the last term of the ring term loop of ``ratio_terms``.

A truncated sum builds each term only to the precision it keeps.  The
order bounds cum_k of ``ratio_orders`` say how far each step moves a
term's precision, so term k is capped at top + cum_k - min_(j>=k) cum_j:
every later term made from it still reaches the target top, and no
coefficient below top changes.  This is "compute only what is needed" in
the sense of van der Hoeven's relaxed series, derived statically.

Exact arguments also choose the arithmetic.  A factor 1 - c*q^e with
exact c is a two-term integer update of a coefficient block over one
shared denominator (``_times_one_minus``, used by ``qpoch_capped`` and
``ratio_terms``), and a division by it is an integer recurrence
(``_over_one_minus``); the block is normalized once per result or term.
One such step on a raw term is ``_exact_step``, which ``sums._pfamily``
also takes for the step between shifted P_m members.
Both build only the entries they keep: the update stops at the cap, and
a division whose shift e reaches past the block returns it unchanged.
Series arguments go through the ring operations of ``series``.  The two
give structurally equal results, with the same precisions and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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
        c = x.coef * y.coef
        return QMonomial(c, x.exp + y.exp) if c else QMonomial(Fraction(0), 0)
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


def _times_one_minus(num, lo, cn, cd, e, top):
    """The block num at q^lo times cd - cn*q^e, kept below q^top: the
    two-term update num'[j] = cd*num[j] - cn*num[j-e], computed only for
    the kept j.  Returns (num', lo')."""
    if e < 0:
        # cd - cn*q^e = q^e * (-cn - (-cd)*q^-e)
        lo += e
        cn, cd, e = -cd, -cn, -e
    keep = max(0, min(len(num) + e, top - lo))
    out = [cd * a for a in num[:keep]]
    out += [0] * (keep - len(out))
    out[e:] = [a - cn * b for a, b in zip(out[e:], num)]
    return out, lo


def _over_one_minus(num, cn, cd, e):
    """num / (1 - (cn/cd)*q^e) for e > 0, to len(num) terms, as (s, m) with
    quotient s/cd^m and m = (len(num)-1)//e.  One scaling pass:
    s_j = num_j*cd^m + cn*(s_(j-e) // cd) is the quotient times cd^m.  The
    division is exact, because quotient coefficient j - e has denominator
    cd^((j-e)//e), so s_(j-e) carries cd^(m - (j-e)//e), at least cd.  For
    e >= len(num) the quotient is num itself, with m = 0."""
    if e >= len(num):
        return num, 0
    m = (len(num) - 1) // e
    if cd == 1:
        s = list(num)
        for j in range(e, len(s)):
            s[j] += cn * s[j - e]
        return s, m
    c = cd ** m
    s = [a * c for a in num]
    for j in range(e, len(s)):
        s[j] += cn * (s[j - e] // cd)
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
    *_, acc = ratio_terms([(v, step, 0)], [], QMonomial(Fraction(1), 0), 0, se.one(v.prec), n + 1)
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
        num, lo = _times_one_minus(num, lo, cn, cd, f, prec - suffix)
    return se._make(lo, num, cd ** n, prec)


def qpoch_infinite(x, prec):
    """(x;q)_inf truncated soundly at the requested precision.

    Euler's identity (x;q)_inf = sum_n (-1)^n q^C(n,2) x^n / (q;q)_n makes
    it the ratio_sum with t_(n+1)/t_n = -x q^n / (1 - q^(n+1)).
    """
    if prec < 1:
        raise PrecisionError("qpoch_infinite needs precision >= 1")
    v = as_value(x)
    if ord_of(v) is None:
        return se.one(prec if isinstance(v, QMonomial) else min(prec, v.prec))
    return ratio_sum([], [(QMonomial(Fraction(1), 0), 1, 1, "(q;q)_n")], v, 1, prec)


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
    the ratio_sum with t_(n+1)/t_n = -x q^n."""
    if prec < 1:
        raise PrecisionError("theta_partial needs precision >= 1")
    v = as_value(x)
    if isinstance(v, QMonomial) and v.coef == 0:
        return se.one(prec)
    if ord_of(v) is None:
        # A term n >= 1 of x = O(q^P) is O(q^(nP + n(n-1)/2)), lowest at P - theta_dip(P+1).
        return se.add(se.one(prec), se.zero(v.prec - theta_dip(v.prec + 1)))
    return ratio_sum([], [], v, 1, prec)


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


def _lift(v):
    """How far the denominator factor 1 - v*q^e, e = -ord(v), rises above
    its order bound min(0, ord(v) + e) = 0: its order when v is a series
    with leading coefficient 1, else 0.  A factor that vanishes to
    precision counts 0; ratio_terms raises on it."""
    d = ord_of(v)
    if isinstance(v, QMonomial) or d is None or v.coeff(d) != 1:
        return 0
    return ord_of(one_minus(v, -d, v.prec)) or 0


def ratio_orders(num, den, z, sr):
    """Yield (cum_k, settled_k) for k = 0, 1, ... for the terms of ratio_terms.

    step(k) bounds the order the k-th ratio adds from below, so cum_k, the
    sum of step(0..k-1), bounds ord(t_k), and a step moves a term's
    precision by at least step(k).  A denominator factor 1 - v*q^e counts
    min(0, ord(v) + e), or its true order where that is higher (_lift).
    From stab on no factor has negative order and step(k) = ord(z) + sr*k
    never falls again; settled_k says k >= stab and step(k) >= 0, so cum
    never falls after k.
    """
    dz = ord_of(z)
    signed = ([(1, i, j, ord_of(v), 0) for v, i, j in num]
              + [(-1, i, j, ord_of(v), _lift(v)) for v, i, j, _ in den])
    stab = max([0] + [-((d + j) // i) for _, i, j, d, _ in signed if d is not None])
    k = cum = 0
    while True:
        step = dz + sr * k + sum(s * _m0(d, i * k + j) - (x if x and i * k + j == -d else 0)
                                 for s, i, j, d, x in signed)
        yield cum, k >= stab and step >= 0
        cum += step
        k += 1


def ratio_stop(num, den, z, sr, prec, n_term=None):
    """(n, dip): how many terms ratio_sum adds and the lowest cum_k among them.

    Given ``n_term`` the terms are t_0..t_(n_term); otherwise they end
    before the first settled k with cum_k >= prec, which the caller makes
    sure exists.
    """
    n = dip = 0
    for cum, settled in ratio_orders(num, den, z, sr):
        if n > n_term if n_term is not None else settled and cum >= prec:
            break
        dip = min(dip, cum)
        n += 1
    return n, dip


def ratio_terms(num, den, z, sr, t0, n, top=None):
    """Yield t_0 = t0, t_1, ..., t_(n-1) (t_0 alone when n < 2), where
    t_(k+1)/t_k = z (-1)^sr q^(sr*k) N_k/D_k as in ratio_sum.

    Given ``top``, term k is built only to precision
    top + cum_k - min_(k<=j<n) cum_j (see ratio_orders), when its own is
    higher: a term j >= k made from the capped t_k moves by at least
    cum_j - cum_k, so every term still reaches top, and no coefficient
    below top changes.  The suffix minimum covers a cum that falls before
    it settles.  A sum truncated to top passes it; a terminating sum,
    whose precision is the minimum over its terms, does not.

    When z and every factor value are exact monomials, each step runs on the
    raw term (lo, T, D, P): the block T at q^lo over the denominator D, of
    precision P.  A factor 1 - (cn/cd) q^e is a two-term update of T, z and
    (-1)^sr q^(sr*k) are a scale and a shift, and the result is normalized
    once per term.  When any of them is a series, each factor is a series
    and each step is ring operations.  Both give the same terms,
    precisions and errors:
    with d = min(0, e), a numerator factor moves P to P + d and a
    denominator factor to P - d, a vanishing numerator factor gives mul's
    zero series, and a vanishing denominator factor raises.
    """
    caps = [None] * max(n, 1)
    if top is not None:
        cums = [cum for cum, _ in islice(ratio_orders(num, den, z, sr), len(caps))]
        low = cums[-1]
        for k in reversed(range(len(cums))):
            low = min(low, cums[k])
            caps[k] = top + cums[k] - low
        t0 = se.cap(t0, caps[0])
    if isinstance(z, QMonomial) and all(isinstance(f[0], QMonomial) for f in num + den):
        return _exact_terms(num, den, z, sr, t0, n, caps)
    return _ring_terms(num, den, z, sr, t0, n, caps)


def _raw_factors(num, den):
    """The factor lists of ratio_terms, with exact values, as the raw
    tuples of _exact_step: (cn, cd, ve, i, j) for 1 - (cn/cd) q^(ve+i*k+j),
    and (cn, cd, ve, i, j, what) in ``den``.  A zero value is the factor 1
    and is left out."""
    return ([(v.coef.numerator, v.coef.denominator, v.exp, i, j) for v, i, j in num if v.coef],
            [(v.coef.numerator, v.coef.denominator, v.exp, i, j, what)
             for v, i, j, what in den if v.coef])


def _exact_step(t, num, den, k, shift, zn, zd, cap):
    """Step k of an exact ratio on the raw term (lo, T, D, P) of t: t times
    the factors of ``num``, times (zn/zd) q^shift, over the factors of
    ``den`` (_raw_factors' lists, with exponents at k), with the precision
    lowered to ``cap`` (None: not lowered).  Normalized once."""
    lo, T, D, P = t.min_exp, list(t._num), t._den, t.prec
    for cn, cd, ve, i, j in num:
        e = ve + i * k + j
        if e == 0 and cn == cd:
            # mul by the zero factor O(q^(P - min(0, ord t) + 4)) of _factor.
            P += 4 + max(0, lo if T else P)
            T = []
            continue
        if T:
            T, lo = _times_one_minus(T, lo, cn, cd, e, P + min(0, e))
            D *= cd
        P += min(0, e)
    lo += shift
    P += shift
    if zn != 1:
        T = [zn * a for a in T] if zn else []
    D *= zd
    for cn, cd, ve, i, j, what in den:
        e = ve + i * k + j
        if e == 0 and cn == cd:
            raise DegenerateParameterError(
                "%s: factor 1 - v*q^%d vanishes" % (what, i * k + j))
        if e < 0:
            # 1 - c*q^e = -c*q^e * (1 - q^-e/c)
            lo -= e
            P -= e
            if cd != 1:
                T = [cd * a for a in T]
            D *= -cn
            cn, cd, e = cd, cn, -e
        if not T:
            continue
        if e == 0:
            T = [cd * a for a in T]
            D *= cd - cn
        else:
            T += [0] * (P - lo - len(T))
            T, m = _over_one_minus(T, cn, cd, e)
            D *= cd ** m
    if cap is not None:
        P = min(P, cap)
    return se._make(lo, T, D, P)


def _exact_terms(num, den, z, sr, t, n, caps):
    num, den = _raw_factors(num, den)
    zn = -z.coef.numerator if sr % 2 else z.coef.numerator
    yield t
    for k in range(n - 1):
        t = _exact_step(t, num, den, k, z.exp + sr * k, zn, z.coef.denominator, caps[k + 1])
        yield t


def _ring_terms(num, den, z, sr, t, n, caps):
    num = [(v, i, j, ord_of(v)) for v, i, j in num]
    den = [(v, i, j, ord_of(v), what) for v, i, j, what in den]
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
        if caps[k + 1] is not None:
            t = se.cap(t, caps[k + 1])
        yield t


def ratio_sum(num, den, z, sr, prec, n_term=None):
    """sum_k t_k with t_0 = 1 and t_(k+1)/t_k = z (-1)^sr q^(sr*k) N_k/D_k.

    N_k and D_k multiply 1 - v q^(i*k+j) over ``num`` (v, i, j) and ``den``
    (v, i, j, what); i >= 1, j >= 0, v and z are values from as_value, z
    is nonzero, and ``what`` names a vanishing denominator factor in the
    error.

    Given ``n_term`` the sum is t_0..t_(n_term), uncapped; otherwise it
    stops as ratio_stop says and is truncated to prec.  Terms start at
    precision prec - dip + 2, where dip <= 0 is the lowest cum_k of a
    summed term (see ratio_orders).  The terms come from ratio_terms: on
    raw integers when z and every v are exact monomials, by ring
    operations when any is a series, with identical results.  A
    truncated sum asks ratio_terms for each term only to the precision
    it keeps (``top`` = prec), so its last term, capped at prec, already
    truncates the sum.  A terminating sum passes no cap: its precision is
    the minimum over its terms, which a cap could move.  The terms are
    summed once over one running denominator by series.add_all, as they
    are made, and the sum is normalized once.
    """
    n, dip = ratio_stop(num, den, z, sr, prec, n_term)
    top = prec if n_term is None else None
    return se.add_all(ratio_terms(num, den, z, sr, se.one(prec - dip + 2), n, top))


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
        [(QMonomial(Fraction(1), 0), 1, 1, "bhs: (q;q)_k")]
        + [(l, 1, 0, "singular lower parameter") for l in los],
        zv, sr, prec, n_term,
    )
