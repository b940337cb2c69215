"""Named composite q-sums over exact parameter values.

Each operation takes parameter values (rationals, the exact values
QMonomial and QRational of ``kernels``, or Laurent series) plus a target
precision.  Infinite sums advance a running term by exact factor ratios,
stop once a mechanical lower bound on the remaining term orders clears
the target, and truncate the result to the target.  Each sum derives its
working precision from the target and its arguments' q-orders: what its
divisions and shifts lose by the ring rules, and how far its terms dip
below q^0 (theta_dip, u_dip).  Omega, Theta_k and T sum products c*theta(y),
c rational in q and exact for exact arguments, by one rule
(``kernels.theta_combination``): theta at prec - ord(c), and an exact c
multiplies without loss.  Exact arguments therefore reach the requested
precision; series arguments propagate honestly.

P_m and S start their terms at (q,a,b;q)_inf: term n is then
T_n(a,b) = (q^(n+1), aq^n, bq^n;q)_inf (abq^(n-m);q)_n q^(zexp*n), a
product with small coefficients, and no final product is taken.

Theorem 2.1 and Corollary 2.2 need P_m at m consecutive shifts.  Since
T_n(aq,bq) (1 - abq^(n+1-m)) = q^(-zexp) (1 - q^(n+1)) T_(n+1)(a,b),

    P_m(aq, bq) = q^(-zexp) sum_(n>=1) T_n(a,b) (1 - q^n) / (1 - abq^(n-m)),

so ``pmfamily`` streams the terms of P_m(a,b) once and makes each shift
from the one before with one exact step per term.  Of that step only
the shift q^(-zexp) lowers a term's precision (a division by a factor of
negative order raises it), so for count members the base terms are
built to prec + zexp*(count-1), the raise.  Each member stops where its
own call would, at prec + extra for its own arguments, and is capped at
prec: it equals the direct call.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateParameterError, DomainError, PrecisionError
from . import series as se
from .series import LaurentSeries
from .kernels import (
    QMonomial,
    QRational,
    as_value,
    negord,
    ord_of,
    qpoch_finite,  # unused; bench/selftest.py checks that the tracer wraps this binding
    qpoch_multi,
    ratio_stop,
    ratio_terms,
    theta_combination,
    theta_dip,
    theta_partial,
    bhs,
    _check_poch_invertible,
    _ONE,
    _RAW_ONE,
    _exact_step,
    _over_sparse,
    _raw_factors,
    _times_sparse,
    _mul_value,
    _val_add,
    _val_inv,
    _val_mul,
    _val_neg,
    _val_ratio,
    _val_shift,
)

__all__ = ["usum", "vsum", "qcap", "lam", "pmsum", "pmfamily", "ssum", "omega", "thetak", "tsum"]

_QMON = QMonomial(Fraction(1), 1)
_ONE_Q = _val_add(_ONE, _QMON)  # 1 + q


# -- U, V and Q ----------------------------------------------------------------


def _gauss(n):
    """The Gaussian polynomials [n, j]_q, j = 0..n, as integer lists, by the exact
    recurrence [n, j+1] = [n, j] (1 - q^(n-j)) / (1 - q^(j+1)), of degree (j+1)(n-j-1)."""
    rows = [[1]]
    for j in range(n):
        num = _times_sparse(rows[-1], 0, (0, 1, ((n - j, -1),)), len(rows[-1]) + n - j)[0]
        rows.append(_over_sparse(num, 1, ((j + 1, -1),))[0][: (j + 1) * (n - j - 1) + 1])
    return rows


def usum(m, b, prec):
    """U_m: sum over k of (q^(1-m);q)_k (1-bq^(2k)) b^(2k) q^(2k^2-k+mk)
    / ((q;q)_k (bq^k;q)_m).  U_0 = theta(q,b), whose terms n = 2k and 2k+1
    make U_0's term k; for m >= 1 the sum is the q-binomial polynomial
    U_m(b) = sum_(j<m) q^(j^2) [m-1, j]_q b^j."""
    if m < 0:
        raise DomainError("usum needs m >= 0")
    if prec < 1:
        raise PrecisionError("usum needs precision >= 1")
    bv = as_value(b)
    if m == 0:
        return theta_partial(bv, prec)
    _check_poch_invertible(bv, 2 * m - 1, "U: (b;q)_%d" % (2 * m - 1))
    # Exact b: a polynomial of degree <= (m-1) max(0, d+m-1), exact at any precision;
    # term j, times b^j of order j*d, reaches p.  A series b propagates its own.
    d = bv.exp if isinstance(bv, QMonomial) else ord_of(bv) or 0
    p = max(prec, (m - 1) * max(0, d + m - 1) + 1) if isinstance(bv, QMonomial) else prec
    terms, bpow = [], QMonomial(Fraction(1), 0)
    for j, g in enumerate(_gauss(m - 1)):
        terms.append(_mul_value(se._make(j * j, g, 1, p + j * j - j * min(0, d)), bpow))
        bpow = _val_mul(bpow, bv)
    return se.add_all(terms)


def u_dip(m, d):
    """How far below q^0 U_m(b) can reach for ord(b) = d: the lowest term
    order j^2 + j*d of its q-binomial form (theta's dip for m = 0)."""
    if m <= 0:
        return theta_dip(d)
    return -min(j * j + j * d for j in range(m))


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
    / ((q;q)_i (bq^i;q)_(m-1)).  Termwise this is U_(m-1), which is how it is
    computed: sum_(j<m-1) q^(j^2) [m-2, j]_q b^j; the tests check the i-sum."""
    if m < 2:
        raise DomainError("qcap needs m >= 2")
    return usum(m - 1, b, prec)


def lam(m, k, b, prec):
    """Elimination coefficient (q^(m-k);q)_k (b q^(k-m+1))^k
    / ((q;q)_k Q_m(b q^(1-m))), whose numerator is [m-1, k]_q (b q^(k-m+1))^k."""
    if m < 2:
        raise DomainError("lam needs m >= 2")
    if not 0 <= k <= m - 1:
        raise DomainError("lam needs 0 <= k <= m-1")
    if prec < 1:
        raise PrecisionError("lam needs precision >= 1")
    bv = as_value(b)
    db = ord_of(bv) or 0
    dpow = k * (db + k - m + 1)
    # ord Q_m(bq) >= -u_dip, and divide's rule loses up to twice that dip;
    # b^k of order dpow < 0 loses -dpow.  A cancelling Q_m has order up to the
    # degree t = (m-2) max(deg D, deg N - 1) of its numerator over D^(m-2) for
    # b = N/D, with deg N = ord b and deg D = 0 for a monomial or a series:
    # Q_m at w + 2t and the raised w pay for it.
    hi_n, hi_d = (bv.num[-1][0], bv.den[-1][0]) if isinstance(bv, QRational) else (db, 0)
    w = prec + 2 * u_dip(m - 1, db + 1 - m) - min(0, dpow)
    qm = qcap(m, _val_shift(bv, 1 - m), w + 2 * (m - 2) * max(hi_d, hi_n - 1))
    if qm.is_zero:
        raise DegenerateParameterError("lam: Q_%d(b*q^%d) vanishes to precision" % (m, 1 - m))
    w = max(w, prec + qm.order() - min(0, dpow))
    bpow = QMonomial(Fraction(1), 0)
    for _ in range(k):
        bpow = _val_mul(bpow, _val_shift(bv, k - m + 1))
    # Uncapped: capping at prec would change the corpus output (its JSON hash).
    return se.divide(_mul_value(se._make(0, _gauss(m - 1)[k], 1, w), bpow), qm)


# -- the P_m family, S, Omega, Theta_k and T -----------------------------------


def _pfactors(m, av, bv, what):
    """The term ratio of (ab/q^m;q)_(2n) / ((q;q)_n (a;q)_n (b;q)_n
    (ab/q^m;q)_n) as ratio_terms' factor lists, after the eager checks,
    and extra: term k has order >= cum_k - extra."""
    _check_poch_invertible(av, None, what + ": (a;q)_n")
    _check_poch_invertible(bv, None, what + ": (b;q)_n")
    abm = _val_shift(_val_mul(av, bv), -m)
    _check_poch_invertible(abm, None, what + ": (ab/q^%d;q)_n" % m)
    da, db = ord_of(av), ord_of(bv)
    extra = -(negord(da, max(0, -(da or 0))) + negord(db, max(0, -(db or 0))))
    num = [(abm, 2, 0), (abm, 2, 1)]
    den = [(_QMON, 1, 0, what + ": (q;q)_n"), (av, 1, 0, what + ": (a;q)_n"),
           (bv, 1, 0, what + ": (b;q)_n"), (abm, 1, 0, what + ": (ab/q^%d;q)_n" % m)]
    return num, den, extra


def _pfamily(m, a, b, prec, zexp, what, count=1):
    """The members k < count of (q,a,b;q)_inf * sum_n (ab/q^m;q)_(2n)
    q^(zexp*n) / ((q;q)_n (a;q)_n (b;q)_n (ab/q^m;q)_n) at (aq^k, bq^k),
    each equal to the direct call (count = 1) there.  Member 0 runs by term
    ratios from t_0 = (q,a,b;q)_inf, built to top - dip, where ratio_terms
    caps t_0; member k stops at its own ratio_stop to prec + extra_k, and
    comes from member k-1 by the shift step of the module docstring, with
    the raise top = prec + zexp*(count-1).  Exact a and b when count > 1."""
    av, bv = as_value(a), as_value(b)
    z = QMonomial(Fraction(1), zexp)
    stops = []
    for k in range(count):
        num, den, extra = _pfactors(m, _val_shift(av, k), _val_shift(bv, k), what)
        cums = ratio_stop(num, den, z, 0, prec + extra)
        stops.append(len(cums))
        if k == 0:
            base = num, den, cums
    # Term n of member k comes from term n+1 of member k-1.
    lengths = list(stops)
    for k in reversed(range(count - 1)):
        lengths[k] = max(lengths[k], lengths[k + 1] + 1)
    num, den, cums = base
    top = prec + zexp * (count - 1)
    # Past the stop cum_k >= prec + extra > 0, so the dip is also the
    # lowest cum_k of the longer base run.
    pre = qpoch_multi([_QMON, av, bv], top - min(cums, default=0))
    if count > 1:
        cums = ratio_stop(num, den, z, 0, least=lengths[0])
    terms = list(ratio_terms(num, den, z, 0, pre, lengths[0], [top] * lengths[0], cums))
    out = [se.cap(se.add_all(terms[:stops[0]]), prec)]
    ab = _val_mul(av, bv)
    for k in range(1, count):
        snum, sden = _raw_factors(
            [(QMonomial(Fraction(1), 0), 1, 0)],
            [(_val_shift(ab, 2 * k - 2 - m), 1, 0, what + ": (ab/q^%d;q)_n" % m)],
            lengths[k] + 1)
        # Each later step lowers the precision by zexp at most.
        terms = [_exact_step(terms[n + 1], snum, sden, n + 1, -zexp, _RAW_ONE,
                             prec + zexp * (count - 1 - k)) for n in range(lengths[k])]
        out.append(se.cap(se.add_all(terms[:stops[k]]), prec))
    return out


def pmfamily(m, a, b, count, prec):
    """[P_m(a*q^k, b*q^k) for k < count] from one stream of P_m(a, b)'s
    terms (see _pfamily); member k equals pmsum(m, a*q^k, b*q^k, prec).
    For count > 1, a and b must be exact."""
    if m < 2:
        raise DomainError("pmsum needs m >= 2")
    if prec < 1:
        raise PrecisionError("pmsum needs precision >= 1")
    if count < 1:
        raise DomainError("pmfamily needs count >= 1")
    if count > 1 and any(isinstance(as_value(x), LaurentSeries) for x in (a, b)):
        raise DomainError("pmfamily needs exact a and b for count > 1")
    return _pfamily(m, a, b, prec, 1, "Pm", count)


def pmsum(m, a, b, prec):
    """P_m(a,b) = (q,a,b;q)_inf sum_n (ab/q^m;q)_(2n) q^n
    / ((q,a,b,ab/q^m;q)_n), for m >= 2."""
    return pmfamily(m, a, b, 1, prec)[0]


def ssum(a, b, prec):
    """S(a,b) = (q,a,b;q)_inf sum_n (ab/q^3;q)_(2n) q^(2n) / ((q,a,b,ab/q^3;q)_n)."""
    if prec < 1:
        raise PrecisionError("ssum needs precision >= 1")
    return _pfamily(3, a, b, prec, 2, "S")[0]


def omega(a, b, prec):
    """Omega(a,b) = sum_n (-1)^n q^(n(n-1)/2) b^n theta(q, a q^n): the theta
    combination with coefficients q^(n(n-1)/2) b^n."""
    if prec < 1:
        raise PrecisionError("omega needs precision >= 1")
    av, bv = as_value(a), as_value(b)
    db = ord_of(bv)
    if db is None:
        return theta_partial(av, prec)
    da = ord_of(av) or 0

    def terms():
        bpow, n = _ONE, 0
        # Term n has order >= C(n,2) + n*db - theta_dip(da + n), rising once n >= -da, -db.
        while n < -da or n + db < 0 or n * (n - 1) // 2 + n * db - theta_dip(da + n) < prec:
            yield (-1) ** n, _val_shift(bpow, n * (n - 1) // 2), _val_shift(av, n)
            bpow = _val_mul(bpow, bv)
            n += 1

    return theta_combination(terms(), prec)


def thetak_dip(k, da, db):
    """How far below q^0 Theta_k(q,a,b) can reach for ord(a) = da and
    ord(b) = db: the lowest order bound over its four products c*theta.
    The DSL's ThetaK guard row; thetak itself needs no such bound."""

    def half(x, y):
        # c*theta(y*q^(k+2)) with c = (1 + x*q^(k+1)) y / (x (1+q)), and
        # c*theta(y*q^(k+1)) with c = (1 + x*q^k) / ((x + y) q^(k+1)).
        return max(x - y - min(0, x + k + 1) + theta_dip(y + k + 2),
                   k + 1 + min(x, y) - min(0, x + k) + theta_dip(y + k + 1))

    return max(half(da, db), half(db, da))


def thetak(k, a, b, prec):
    """Theta_k(q,a,b) = half(a, b) - half(b, a), of order
    >= -thetak_dip(k, ord a, ord b), where half(x, y) is
    c1 theta(y q^(k+2)) + c3 theta(y q^(k+1)) with
    c1 = (1 + x q^(k+1)) y / (x (1+q)) and c3 = (1 + x q^k) / ((x + y) q^(k+1))."""
    if k < 0:
        raise DomainError("thetak needs k >= 0")
    if prec < 1:
        raise PrecisionError("thetak needs precision >= 1")
    av, bv = as_value(a), as_value(b)
    if ord_of(av) is None or ord_of(bv) is None:
        raise DegenerateParameterError("thetak needs nonzero a and b")
    apb = _val_add(av, bv)
    if ord_of(apb) is None:
        raise DegenerateParameterError("thetak needs a + b nonzero")
    terms = []
    for sign, x, y in ((1, av, bv), (-1, bv, av)):
        c1 = _val_ratio([_val_add(_ONE, _val_shift(x, k + 1)), y], [x, _ONE_Q])
        c3 = _val_ratio([_val_add(_ONE, _val_shift(x, k))], [apb, QMonomial(Fraction(1), k + 1)])
        terms += [(sign, c1, _val_shift(y, k + 2)), (sign, c3, _val_shift(y, k + 1))]
    return theta_combination(terms, prec)


def t_dip(d):
    """How far below q^0 T(q,a) can reach for ord(a) = d: the lower of its
    two products' order bounds.  The first numerator has order
    >= min(d, 2d, 2) over a unit, and the second min(d+1, 2d, 4) over a*q.
    The DSL's T guard row; tsum itself needs no such bound."""
    return max(0, theta_dip(d) - min(d, 2 * d, 2),
               theta_dip(d - 1) - min(0, d - 1, 3 - d))


def tsum(a, prec):
    """T(a) = (a-a^2+aq-q^2)/(1+q+q^2) theta(q,a)
    + (aq-a^2+aq^2-q^4)/(aq) theta(q,a/q)."""
    if prec < 1:
        raise PrecisionError("tsum needs precision >= 1")
    av = as_value(a)
    if ord_of(av) is None:
        raise DegenerateParameterError("tsum needs nonzero a")
    neg = _val_neg(av)
    # (a - a^2 + aq - q^2) / (1 + q + q^2) = (a(1 + q - a) - q^2) / (1 + q + q^2),
    # and (aq - a^2 + aq^2 - q^4) / (aq) = 1 + q - a/q - q^3/a.
    num = _val_add(_val_mul(av, _val_add(_ONE_Q, neg)), QMonomial(Fraction(-1), 2))
    c1 = _val_mul(num, _val_inv(_val_add(_ONE_Q, QMonomial(Fraction(1), 2))))
    c2 = _val_add(_val_add(_ONE_Q, _val_shift(neg, -1)),
                  _val_mul(QMonomial(Fraction(-1), 3), _val_inv(av)))
    return theta_combination([(1, c1, av), (1, c2, _val_shift(av, -1))], prec)
