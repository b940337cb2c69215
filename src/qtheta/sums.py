"""Named composite q-sums over exact parameter values.

Each operation takes parameter values (rationals, exact monomials in q, or
Laurent series) plus a target precision.  Infinite sums advance a running
term by exact binomial-factor ratios, stop once a mechanical lower bound
on the remaining term orders clears the target, and truncate the result
to the target.  Exact arguments therefore always reach the requested
precision; series arguments propagate honestly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateParameterError, DomainError, PrecisionError
from . import series as se
from .kernels import (
    QMonomial,
    as_value,
    negord,
    one_minus,
    ord_of,
    qpoch_finite,
    qpoch_multi,
    theta_dip,
    theta_partial,
    to_series,
    bhs,
    _check_poch_invertible,
    _factor,
    _m0,
    _mul_value,
    _val_mul,
    _val_neg,
    _val_shift,
)

__all__ = ["usum", "vsum", "qcap", "lam", "pmsum", "ssum", "omega", "thetak", "tsum"]

_QMON = QMonomial(Fraction(1), 1)


def _div_checked(t, g, what):
    if g.is_zero:
        raise DegenerateParameterError("%s: denominator factor vanishes" % what)
    return se.divide(t, g)


# -- U, V and Q ----------------------------------------------------------------


def usum(m, b, prec):
    """U_m: sum over k of (q^(1-m);q)_k (1-bq^(2k)) b^(2k) q^(2k^2-k+mk)
    / ((q;q)_k (bq^k;q)_m).  Finite for m >= 1, an infinite partial-theta
    split for m = 0."""
    if m < 0:
        raise DomainError("usum needs m >= 0")
    if prec < 1:
        raise PrecisionError("usum needs precision >= 1")
    bv = as_value(b)
    db = ord_of(bv)
    if m == 0:
        stab = max(0, -(db if db is not None else 0))

        def bound(k):
            return 2 * k * k - k + 2 * k * (db or 0) + _m0(db, 2 * k)

        acc = None
        bpow = QMonomial(Fraction(1), 0)
        b2 = _val_mul(bv, bv)
        k = 0
        while True:
            if k >= stab and bound(k) >= prec and 4 * k + 1 + 2 * (db or 0) >= 0:
                break
            sh = 2 * k * k - k
            f = one_minus(bv, 2 * k, prec + 2 * abs(_m0(db, 2 * k)) - min(0, sh + 2 * k * (db or 0)) + 4)
            term = se.shift(_mul_value(f, bpow), sh)
            acc = term if acc is None else se.add(acc, term)
            bpow = _val_mul(bpow, b2)
            k += 1
        return se.cap(acc if acc is not None else se.zero(prec), prec)
    total = None
    for k in range(m):
        _check_poch_invertible(_val_shift(bv, k), m, "U: (b*q^%d;q)_%d" % (k, m))
        dnum = negord(1 - m, k)
        dpow = 2 * k * (db or 0)
        dden = negord((db or 0) + k, m)
        sh = 2 * k * k - k + m * k
        slack = 2 * (abs(dnum) + abs(dpow) + 2 * abs(dden)) + abs(min(0, sh + dpow)) + 6
        w = prec + slack
        num = qpoch_finite(QMonomial(Fraction(1), 1 - m), k, w)
        num = se.mul(num, one_minus(bv, 2 * k, w))
        if isinstance(bv, QMonomial):
            bpow = QMonomial(bv.coef ** (2 * k), bv.exp * 2 * k)
        else:
            bpow = se.pow_int(bv, 2 * k) if k else se.one(w)
        term = se.shift(_mul_value(num, bpow), sh)
        term = _div_checked(term, qpoch_finite(_QMON, k, w), "U: (q;q)_k")
        term = _div_checked(term, qpoch_finite(_val_shift(bv, k), m, w + 2 * abs(dden)),
                            "U: (b*q^k;q)_m")
        total = term if total is None else se.add(total, term)
    return total


def vsum(m, n, a, b, prec):
    """V_{m,n}: the terminating 2phi1(q^-m, q^-n; a b q^(n-1); q, b q^(m+n))."""
    if m < 0 or n < 0:
        raise DomainError("vsum needs m, n >= 0")
    av, bv = as_value(a), as_value(b)
    ab = _val_mul(av, bv)
    lower = _val_shift(ab, n - 1)
    _check_poch_invertible(lower, min(m, n), "V: (abq^(n-1);q)_k")
    return bhs(
        [QMonomial(Fraction(1), -m), QMonomial(Fraction(1), -n)],
        [lower],
        _val_shift(bv, m + n),
        prec,
    )


def qcap(m, b, prec):
    """Q_m: sum over i <= m-2 of (q^(2-m);q)_i (1-bq^(2i)) b^(2i) q^((2i-2+m)i)
    / ((q;q)_i (bq^i;q)_(m-1)).  Termwise this is U_(m-1), which is how it
    is computed; the tests also check it against its own formula."""
    if m < 2:
        raise DomainError("qcap needs m >= 2")
    return usum(m - 1, b, prec)


def lam(m, k, b, prec):
    """Elimination coefficient (q^(m-k);q)_k (b q^(k-m+1))^k
    / ((q;q)_k Q_m(b q^(1-m)))."""
    if m < 2:
        raise DomainError("lam needs m >= 2")
    if not 0 <= k <= m - 1:
        raise DomainError("lam needs 0 <= k <= m-1")
    if prec < 1:
        raise PrecisionError("lam needs precision >= 1")
    bv = as_value(b)
    bq = _val_shift(bv, 1 - m)
    qm = qcap(m, bq, prec + 6)
    if qm.is_zero:
        raise DegenerateParameterError("lam: Q_%d(b*q^%d) vanishes to precision" % (m, 1 - m))
    dq = qm.min_exp
    if dq < 0:
        qm = qcap(m, bq, prec + 2 * (-dq) + 6)
    db = ord_of(bv) or 0
    dpow = k * (db + k - m + 1)
    w = prec + 2 * abs(min(0, dq)) + abs(min(0, dpow)) + 6
    num = qpoch_finite(QMonomial(Fraction(1), m - k), k, w)
    if isinstance(bv, QMonomial):
        bpow = QMonomial(bv.coef ** k, k * (bv.exp + k - m + 1))
    else:
        bpow = se.pow_int(se.shift(bv, k - m + 1), k) if k else se.one(w)
    res = _mul_value(num, bpow)
    res = _div_checked(res, qpoch_finite(_QMON, k, w), "lam: (q;q)_k")
    return se.divide(res, qm)


# -- the P_m family, S, Omega, Theta_k and T -----------------------------------


def _pfamily(m, a, b, prec, zexp, what):
    """(q,a,b;q)_inf * sum_n (ab/q^m;q)_(2n) q^(zexp*n)
    / ((q;q)_n (a;q)_n (b;q)_n (ab/q^m;q)_n), by term ratios."""
    av, bv = as_value(a), as_value(b)
    _check_poch_invertible(av, None, what + ": (a;q)_n")
    _check_poch_invertible(bv, None, what + ": (b;q)_n")
    ab = _val_mul(av, bv)
    abm = _val_shift(ab, -m)
    _check_poch_invertible(abm, None, what + ": (ab/q^%d;q)_n" % m)
    da, db, dd = ord_of(av), ord_of(bv), ord_of(abm)

    extra = -(negord(da, max(0, -(da or 0))) + negord(db, max(0, -(db or 0))))
    target = prec + extra

    def bound(n):
        return (zexp * n + negord(dd, 2 * n) - negord(dd, n)
                - negord(da, n) - negord(db, n))

    stab = max([0] + [-x for x in (da, db, dd) if x is not None and x < 0])
    n = 0
    cum = 0
    dip = 0
    while not (n >= stab and bound(n) >= target):
        cum += (zexp + _m0(dd, 2 * n) + _m0(dd, 2 * n + 1)
                - _m0(dd, n) - _m0(da, n) - _m0(db, n))
        dip = min(dip, cum)
        n += 1
    n_stop = n

    t = se.one(target - dip + 2)
    acc = t
    for n in range(n_stop - 1):
        t = se.mul(t, _factor(t, abm, dd, 2 * n))
        t = se.mul(t, _factor(t, abm, dd, 2 * n + 1))
        t = se.shift(t, zexp)
        t = se.divide(t, _factor(t, _QMON, 1, n))
        t = _div_checked(t, _factor(t, av, da, n), what + ": (a;q)_n")
        t = _div_checked(t, _factor(t, bv, db, n), what + ": (b;q)_n")
        t = _div_checked(t, _factor(t, abm, dd, n), what + ": (ab/q^%d;q)_n" % m)
        acc = se.add(acc, t)
    acc = se.cap(acc, target)
    pre = qpoch_multi([_QMON, av, bv], prec + max(0, -acc._ord()) + 2)
    return se.cap(se.mul(pre, acc), prec)


def pmsum(m, a, b, prec):
    """P_m(a,b) = (q,a,b;q)_inf sum_n (ab/q^m;q)_(2n) q^n
    / ((q,a,b,ab/q^m;q)_n), for m >= 2."""
    if m < 2:
        raise DomainError("pmsum needs m >= 2")
    if prec < 1:
        raise PrecisionError("pmsum needs precision >= 1")
    return _pfamily(m, a, b, prec, 1, "Pm")


def ssum(a, b, prec):
    """S(a,b) = (q,a,b;q)_inf sum_n (ab/q^3;q)_(2n) q^(2n) / ((q,a,b,ab/q^3;q)_n)."""
    if prec < 1:
        raise PrecisionError("ssum needs precision >= 1")
    return _pfamily(3, a, b, prec, 2, "S")


def omega(a, b, prec):
    """Omega(a,b) = sum_n (-1)^n q^(n(n-1)/2) b^n theta(q, a q^n)."""
    if prec < 1:
        raise PrecisionError("omega needs precision >= 1")
    av, bv = as_value(a), as_value(b)
    db = ord_of(bv)
    if db is None:
        return theta_partial(av, prec)
    da = ord_of(av)

    def bound(n):
        return n * (n - 1) // 2 + n * db - theta_dip((da if da is not None else 0) + n)

    stab = max(0, -(da if da is not None else 0))
    acc = None
    bpow = QMonomial(Fraction(1), 0)
    n = 0
    while True:
        if n >= stab and bound(n) >= prec and n + db >= 0:
            break
        sh = n * (n - 1) // 2
        dipn = theta_dip((da if da is not None else 0) + n)
        th = theta_partial(_val_shift(av, n),
                           prec + 2 * dipn + abs(min(0, sh + n * db)) + 4)
        term = se.shift(_mul_value(th, bpow), sh)
        if n % 2:
            term = se.neg(term)
        acc = term if acc is None else se.add(acc, term)
        bpow = _val_mul(bpow, bv)
        n += 1
    return se.cap(acc if acc is not None else se.zero(prec), prec)


def thetak(k, a, b, prec):
    """Theta_k(q,a,b): the four-term partial theta combination of order >= -(k+1)."""
    if k < 0:
        raise DomainError("thetak needs k >= 0")
    if prec < 1:
        raise PrecisionError("thetak needs precision >= 1")
    av, bv = as_value(a), as_value(b)
    if ord_of(av) is None or ord_of(bv) is None:
        raise DegenerateParameterError("thetak needs nonzero a and b")
    p = prec + 2 * (k + 2) + 8
    a_s = to_series(av, p)
    b_s = to_series(bv, p)
    apb = se.add(a_s, b_s)
    if apb.is_zero:
        raise DegenerateParameterError("thetak needs a + b nonzero")
    one_q = se.add(se.one(p), se.monomial(1, 1, p))

    th_b2 = theta_partial(_val_shift(bv, k + 2), p)
    th_a2 = theta_partial(_val_shift(av, k + 2), p)
    th_b1 = theta_partial(_val_shift(bv, k + 1), p)
    th_a1 = theta_partial(_val_shift(av, k + 1), p)

    c1 = se.divide(_mul_value(one_minus(_val_neg(av), k + 1, p), bv), se.mul(a_s, one_q))
    c2 = se.divide(_mul_value(one_minus(_val_neg(bv), k + 1, p), av), se.mul(b_s, one_q))
    c3 = se.shift(se.divide(one_minus(_val_neg(av), k, p), apb), -(k + 1))
    c4 = se.shift(se.divide(one_minus(_val_neg(bv), k, p), apb), -(k + 1))

    res = se.sub(se.mul(c1, th_b2), se.mul(c2, th_a2))
    res = se.add(res, se.sub(se.mul(c3, th_b1), se.mul(c4, th_a1)))
    return se.cap(res, prec)


def tsum(a, prec):
    """T(a) = (a-a^2+aq-q^2)/(1+q+q^2) theta(q,a)
    + (aq-a^2+aq^2-q^4)/(aq) theta(q,a/q)."""
    if prec < 1:
        raise PrecisionError("tsum needs precision >= 1")
    av = as_value(a)
    if ord_of(av) is None:
        raise DegenerateParameterError("tsum needs nonzero a")
    p = prec + 10
    A = to_series(av, p)
    qs = se.monomial(1, 1, p)
    A2 = se.mul(A, A)
    th_a = theta_partial(av, p)
    th_aq = theta_partial(_val_shift(av, -1), p)
    den1 = se.add(se.add(se.one(p), qs), se.monomial(1, 2, p))
    num1 = se.add(se.sub(A, A2), se.sub(se.mul(A, qs), se.monomial(1, 2, p)))
    num2 = se.sub(se.add(se.mul(A, qs), se.mul(A, se.monomial(1, 2, p))),
                  se.add(A2, se.monomial(1, 4, p)))
    res = se.add(
        se.mul(se.divide(num1, den1), th_a),
        se.mul(se.divide(num2, se.shift(A, 1)), th_aq),
    )
    return se.cap(res, prec)
