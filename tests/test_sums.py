"""Named sums against brute-force term-by-term oracles and stated relations."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qtheta import series as se
from qtheta import sums
from qtheta.errors import DegenerateParameterError, DomainError, PrecisionError, QThetaError
from qtheta.kernels import (
    QMonomial,
    _check_poch_invertible,
    _exact,
    _mul_value,
    _val_mul,
    _val_neg,
    _val_shift,
    as_value,
    bhs,
    negord,
    one_minus,
    ord_of,
    qpoch_infinite,
    qpoch_multi,
    ratio_sum,
    theta_dip,
    theta_full,
    theta_partial,
    to_series,
)
from qtheta.sums import lam, omega, pmsum, qcap, ssum, thetak, tsum, usum, vsum

from helpers import (
    assert_eq_series,
    brute_poch,
    brute_poch_inf,
    brute_theta,
    factor_one_minus,
    qmon,
    rand_fraction,
    series_of,
)


def _brute_u(m, b, prec, kmax=None, eb=0):
    # The parameter is b*q^eb, or the series b; w leaves room for the
    # negative orders it brings.
    w = prec + 6 + 2 * m + 4 * (m + 2) * abs(eb)
    bs = series_of(qmon(b, eb), w) if isinstance(b, Fraction) else b
    acc = se.zero(prec)
    top = (m - 1) if m >= 1 else (kmax or prec)
    for k in range(top + 1):
        t = brute_poch(qmon(1, 1 - m), k, w)
        t = se.mul(t, factor_one_minus(bs, 2 * k, w))
        t = se.shift(se.mul(t, se.pow_int(bs, 2 * k)), 2 * k * k - k + m * k)
        t = se.divide(t, brute_poch(qmon(1, 1), k, w))
        t = se.divide(t, brute_poch(se.shift(bs, k), m, w + 2 * m))
        acc = se.add(acc, t)
    return se.cap(acc, prec)


def _brute_pfamily(m, a, b, prec, zexp, ea=0, eb=0):
    # The parameters are a*q^ea and b*q^eb; w leaves room for the
    # negative orders they bring.
    w = prec + 6 + 2 * m + 4 * (abs(ea) + abs(eb))
    qq, aq, bq, abm = qmon(1, 1), qmon(a, ea), qmon(b, eb), qmon(a * b, ea + eb - m)
    pre = se.mul(se.mul(brute_poch_inf(qq, w), brute_poch_inf(aq, w)), brute_poch_inf(bq, w))
    n_max = prec + m + 8
    acc = se.zero(w)
    for n in range(n_max):
        t = brute_poch(abm, 2 * n, w)
        t = se.shift(t, zexp * n)
        for arg in (qq, aq, bq, abm):
            t = se.divide(t, brute_poch(arg, n, w))
        acc = se.add(acc, t)
    # Every omitted term has order >= n_max.
    return se.cap(se.mul(pre, se.cap(acc, n_max)), prec)


# -- U ----------------------------------------------------------------------------


def test_u_one_term():
    assert_eq_series(usum(1, Fraction(5), 10), se.one(10), 10)


def test_u0_equals_partial_theta():
    got = usum(0, Fraction(2, 3), 20)
    assert_eq_series(got, theta_partial(Fraction(2, 3), 20), 20)


def test_u2_brute():
    got = usum(2, Fraction(1, 2), 15)
    assert_eq_series(got, _brute_u(2, Fraction(1, 2), 15), 15)


def test_u0_brute():
    got = usum(0, Fraction(-3, 4), 15)
    assert_eq_series(got, _brute_u(0, Fraction(-3, 4), 15, kmax=8), 15)


def test_u_singular_b_one():
    with pytest.raises(DegenerateParameterError):
        usum(2, Fraction(1), 10)


def test_u_brute_negative_order_and_series_b():
    # U_m(b) for b = c*q^e against its defining sum; b = q^-j with
    # j <= 2m-2 makes a denominator factor 1 - b*q^j vanish.
    prec = 10
    for m in range(1, 6):
        for c in (Fraction(1), Fraction(-2, 3), Fraction(3)):
            for e in range(-3, 4):
                b = qmon(c, e)
                if c == 1 and -(2 * m - 2) <= e <= 0:
                    with pytest.raises(DegenerateParameterError):
                        usum(m, b, prec)
                    continue
                got = usum(m, b, prec)
                assert got.prec >= prec, (m, b)
                assert_eq_series(got, _brute_u(m, c, prec, eb=e), prec)
        for text in ("2/3 + q - q^3 + O(q^40)", "-3/2*q^-1 + 2 + q^2 + O(q^40)"):
            b = se.from_string(text)
            got = usum(m, b, prec)
            assert got.prec >= prec, (m, text)
            assert_eq_series(got, _brute_u(m, b, prec), prec)
        # For b = O(q^3) only t_0 = 1/(bq;q)_(m-1) = 1 + O(q^4) is left;
        # U_1 is 1 for every b.
        got = usum(m, se.zero(3), prec)
        assert got.prec == (prec if m == 1 else 4)
        assert_eq_series(got, _brute_u(m, se.zero(3), prec))


def test_gauss_rows_are_pochhammer_quotients():
    # [n, j]_q = (q;q)_n / ((q;q)_j (q;q)_(n-j)), and at q = 1 it is C(n, j).
    for n in range(11):
        rows = sums._gauss(n)
        assert len(rows) == n + 1
        for j, row in enumerate(rows):
            p, qq = n * n + 2, qmon(1, 1)
            want = se.divide(brute_poch(qq, n, p),
                             se.mul(brute_poch(qq, j, p), brute_poch(qq, n - j, p)))
            assert [want.coeff(i) for i in range(len(row))] == row, (n, j)
            assert want.order() == 0 and want.min_exp + len(want._num) == len(row), (n, j)
            assert sum(row) == math.comb(n, j)


def test_u_guard_covers_its_order():
    # u_dip(m, d) is exactly -ord U_m(b) for generic b of order d: the
    # lowest term q^(j^2) b^j of the q-binomial form does not cancel.
    got = [(m, d) for m in range(1, 10) for d in range(-15, 10)
           if sums.u_dip(m, d) != -usum(m, qmon(Fraction(3, 2), d), 1).order()]
    assert got == []


def test_u_qcap_theta_prefix_stable():
    # A result at precision p must be the prefix of the one at p + delta.
    exact_args = [qmon(Fraction(-7, 4), -3), qmon(3, -1), qmon(Fraction(1, 3), 2)]
    series_args = [se.from_string("2/3 + q - q^3 + O(q^60)"),
                   se.from_string("-3/2*q^-2 + 2 + q^2 + O(q^60)")]
    for p in (1, 8):
        for delta in (1, 7, 20):
            for exact, b in [(True, x) for x in exact_args] + [(False, x) for x in series_args]:
                cases = [(usum, (m, b)) for m in range(5)]
                cases += [(qcap, (m, b)) for m in range(2, 6)]
                cases.append((qpoch_infinite, (b,)))
                if not exact:
                    cases.append((theta_partial, (b,)))
                for f, args in cases:
                    lo, hi = f(*args, p), f(*args, p + delta)
                    assert_eq_series(lo, hi)
                    if exact:
                        assert lo.prec >= p and hi.prec >= p + delta, (f, args)


# -- V ----------------------------------------------------------------------------


def test_v_trivial_cases():
    for m in range(4):
        assert_eq_series(vsum(m, 0, Fraction(2), Fraction(3), 10), se.one(10))
        assert_eq_series(vsum(0, m, Fraction(2), Fraction(3), 10), se.one(10))


def test_v11_closed_form():
    # V(1,1,a,b) = 1 + b(1-q)/(1-ab)
    a, b = Fraction(2), Fraction(3)
    got = vsum(1, 1, a, b, 10)
    extra = se.scale(se.sub(se.one(12), se.monomial(1, 1, 12)), b / (1 - a * b))
    assert_eq_series(got, se.add(se.one(12), extra), 10)


def test_v_brute():
    rng = random.Random(17)
    for _ in range(4):
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a * b == 1:
            continue
        m, n = rng.randint(0, 4), rng.randint(0, 5)
        acc = se.zero(14)
        for k in range(min(m, n) + 1):
            t = se.mul(brute_poch(qmon(1, -m), k, 20 + 3 * (m + n)),
                       brute_poch(qmon(1, -n), k, 20 + 3 * (m + n)))
            t = se.divide(t, brute_poch(qmon(1, 1), k, 20 + 3 * (m + n)))
            t = se.divide(t, brute_poch(qmon(a * b, n - 1), k, 20 + 3 * (m + n)))
            t = se.mul_monomial(t, b ** k, (m + n) * k)
            acc = se.add(acc, t)
        assert_eq_series(vsum(m, n, a, b, 12), se.cap(acc, 12), 10)


# -- Q and lambda --------------------------------------------------------------------


def test_qcap_m2_is_one():
    assert_eq_series(qcap(2, Fraction(7), 10), se.one(10), 10)


def test_qcap_m3_closed_form():
    got = qcap(3, Fraction(2), 10)
    want = se.add(se.one(12), se.monomial(2, 1, 12))
    assert_eq_series(got, want, 10)


def test_qcap_m4_cancelling_closed_form():
    # Q_4(-1/q) = 1 + (q + q^2)(-1/q) + q^4/q^2 = q^2 - q: its leading terms
    # cancel, and the polynomial is exact at every precision.
    for p in (1, 3, 10):
        got = qcap(4, qmon(-1, -1), p)
        assert got.prec >= p
        assert (got.min_exp, got._num, got._den) == (1, (-1, 1), 1)


def test_qcap_b_zero_is_one():
    for m in range(2, 6):
        assert_eq_series(qcap(m, Fraction(0), 10), se.one(10), 10)


def test_qcap_matches_own_formula():
    # brute-force the defining i-sum, independently of the U delegation
    rng = random.Random(23)
    for m in (2, 3, 4, 5):
        b = rand_fraction(rng)
        acc = se.zero(12)
        for i in range(m - 1):
            t = brute_poch(qmon(1, 2 - m), i, 24)
            t = se.mul(t, se.sub(se.one(24), se.monomial(b, 2 * i, 24)))
            t = se.mul_monomial(t, b ** (2 * i), (2 * i - 2 + m) * i)
            t = se.divide(t, brute_poch(qmon(1, 1), i, 24))
            t = se.divide(t, brute_poch(qmon(b, i), m - 1, 24))
            acc = se.add(acc, t)
        assert_eq_series(qcap(m, b, 12), se.cap(acc, 12), 10)


def test_lam_m2_closed_forms():
    rng = random.Random(2)
    for _ in range(3):
        b = rand_fraction(rng)
        assert_eq_series(lam(2, 0, b, 12), se.one(12), 12)
        assert_eq_series(lam(2, 1, b, 12), se.from_rational(b, 12), 12)


def test_lam_m3_closed_forms():
    b = Fraction(2)
    qpb = se.add(se.monomial(1, 1, 16), se.from_rational(b, 16))  # q + b
    want0 = se.divide(se.monomial(1, 1, 16), qpb)
    want1 = se.divide(se.scale(se.add(se.one(16), se.monomial(1, 1, 16)), b), qpb)
    want2 = se.divide(se.monomial(b * b, 1, 16), qpb)
    assert_eq_series(lam(3, 0, b, 10), want0, 10)
    assert_eq_series(lam(3, 1, b, 10), want1, 10)
    assert_eq_series(lam(3, 2, b, 10), want2, 10)


def test_lam_k0_is_inverse_qcap():
    rng = random.Random(8)
    for m in (2, 3, 4, 5):
        b = rand_fraction(rng)
        got = lam(m, 0, b, 10)
        want = se.invert(qcap(m, qmon(b, 1 - m), 14 + 2 * m))
        assert_eq_series(got, want, 10)


def test_lam_computes_q_once(monkeypatch):
    # One Q_m(b*q^(1-m)) per call, at a precision derived up front, also
    # where Q_m dips below q^0 (m = 4, ord b = -3) or b^k does (k = 1, ord b = -7).
    calls = []
    real = sums.qcap
    monkeypatch.setattr(sums, "qcap", lambda m, b, p: calls.append(p) or real(m, b, p))
    got = []
    for m, k, e in ((2, 1, -7), (4, 0, -3), (4, 2, -3), (5, 3, 2)):
        calls.clear()
        got.append((lam(m, k, qmon(2, e), 10).prec >= 10, len(calls)))
    assert got == [(True, 1)] * 4


def test_lam_reaches_prec_where_q_cancels():
    # Q_m(b q^(1-m)) at b = -q^(m-2) has cancelling leading terms, e.g.
    # Q_4(-1/q) = q^2 - q; lam pays for its true order.
    short = [(m, k, p, got.prec)
             for m in range(4, 9) for k in range(m) for p in (1, 10, 25)
             for got in [lam(m, k, qmon(-1, m - 2), p)] if got.prec < p]
    assert short == []
    assert_eq_series(lam(4, 0, qmon(-1, 2), 1), se.from_string("-q^-1 - 1 + O(q^1)"))


def test_lam_raises_where_q_vanishes():
    # Q_3(-1/q) = 1 - 1 and Q_5(-1/q^3) are exactly zero.
    for m in (3, 5):
        for p in (1, 10, 25):
            with pytest.raises(DegenerateParameterError):
                lam(m, 0, qmon(-1, 1), p)


def test_lam_bad_indices():
    with pytest.raises(DomainError):
        lam(1, 0, Fraction(2), 10)
    with pytest.raises(DomainError):
        lam(3, 3, Fraction(2), 10)


# -- P_m family -----------------------------------------------------------------------


def test_pm_zero_parameters():
    # P_m(0,0) = (q;q)_inf * sum q^n/(q;q)_n = 1
    for m in (2, 3, 4):
        assert_eq_series(pmsum(m, Fraction(0), Fraction(0), 20), se.one(20), 20)


def test_pm_brute():
    got = pmsum(2, Fraction(2), Fraction(3), 15)
    assert_eq_series(got, _brute_pfamily(2, Fraction(2), Fraction(3), 15, 1), 15)
    got = pmsum(4, Fraction(-1, 2), Fraction(5, 3), 15)
    assert_eq_series(got, _brute_pfamily(4, Fraction(-1, 2), Fraction(5, 3), 15, 1), 15)
    # Negative-order parameters: the term orders dip before they climb.
    got = pmsum(2, qmon(2, -2), Fraction(3), 12)
    assert_eq_series(got, _brute_pfamily(2, Fraction(2), Fraction(3), 12, 1, ea=-2), 12)
    got = pmsum(4, qmon(Fraction(2, 3), -1), qmon(-3, -2), 12)
    assert_eq_series(got, _brute_pfamily(4, Fraction(2, 3), Fraction(-3), 12, 1, ea=-1, eb=-2), 12)


def test_pm_theorem_one_two_relation():
    # theta(q,a) = P_2(a,b) + b P_2(aq,bq)
    a, b = Fraction(2), Fraction(3)
    rhs = se.add(pmsum(2, a, b, 25),
                 se.scale(pmsum(2, qmon(a, 1), qmon(b, 1), 25), b))
    assert_eq_series(theta_partial(a, 25), rhs, 25)


def test_pm_eq41_relation():
    # P_2(a,b) = (a theta(a) - b theta(b)) / (a - b)
    a, b = Fraction(2), Fraction(5)
    want = se.scale(
        se.sub(se.scale(theta_partial(a, 27), a), se.scale(theta_partial(b, 27), b)),
        Fraction(1, a - b),
    )
    assert_eq_series(pmsum(2, a, b, 25), want, 25)


def test_pm_requires_m_at_least_two():
    with pytest.raises(DomainError):
        pmsum(1, Fraction(2), Fraction(3), 10)


def test_pm_degenerate_ab_one():
    with pytest.raises(DegenerateParameterError):
        pmsum(2, Fraction(2), Fraction(1, 2), 12)


# -- S ---------------------------------------------------------------------------------


def test_s_bridge_relation():
    # S(a,b) = (q/b) P_3(a,b) - (q/b) P_2(a, b/q)
    a, b = Fraction(2), Fraction(3)
    lhs = ssum(a, b, 20)
    rhs = se.scale(
        se.shift(se.sub(pmsum(3, a, b, 24), pmsum(2, qmon(a), qmon(b, -1), 24)), 1),
        1 / b,
    )
    assert_eq_series(lhs, rhs, 20)


def test_s_symmetric():
    a, b = Fraction(2), Fraction(3)
    assert_eq_series(ssum(a, b, 16), ssum(b, a, 16), 16)


def test_s_brute_a_zero():
    got = ssum(Fraction(0), Fraction(2), 12)
    assert_eq_series(got, _brute_pfamily(3, Fraction(0), Fraction(2), 12, 2), 12)


# -- P_m and S: the prefactor is the first term ---------------------------------------


def _pfamily_times_prefactor(m, a, b, prec, zexp, what):
    # The bare sum first, to prec + extra, then one product with
    # (q,a,b;q)_inf at the precision the sum's order asks for.
    av, bv = as_value(a), as_value(b)
    _check_poch_invertible(av, None, what + ": (a;q)_n")
    _check_poch_invertible(bv, None, what + ": (b;q)_n")
    abm = _val_shift(_val_mul(av, bv), -m)
    _check_poch_invertible(abm, None, what + ": (ab/q^%d;q)_n" % m)
    da, db = ord_of(av), ord_of(bv)
    extra = -(negord(da, max(0, -(da or 0))) + negord(db, max(0, -(db or 0))))
    q = qmon(1, 1)
    acc = ratio_sum(
        [(abm, 2, 0), (abm, 2, 1)],
        [(q, 1, 0, what + ": (q;q)_n"), (av, 1, 0, what + ": (a;q)_n"),
         (bv, 1, 0, what + ": (b;q)_n"), (abm, 1, 0, what + ": (ab/q^%d;q)_n" % m)],
        QMonomial(Fraction(1), zexp), 0, prec + extra,
    )
    pre = qpoch_multi([q, av, bv], prec + max(0, -acc._ord()))
    return se.cap(se.mul(pre, acc), prec)


def _outcome(f, *args):
    try:
        return f(*args)
    except QThetaError as e:
        return type(e), str(e)


def test_pfamily_equals_sum_times_prefactor():
    # Starting the terms at (q,a,b;q)_inf gives the same series, precision
    # included, and the same errors, for exact and series a and b.
    cs = [Fraction(3, 2), Fraction(-5, 7), Fraction(1, 3)]
    exact = [qmon(c, e) for c in cs for e in range(-2, 2)]
    series = [se.add(se.monomial(c, e, e + p), se.monomial(2, e + 1, e + p))
              for c, e in zip(cs, (-2, 0, 1)) for p in (3, 12)]
    series.append(se.add(se.one(12), se.monomial(Fraction(1, 2), 1, 12)))
    pairs = (list(itertools.product(exact, exact))
             + [(s, x) for s in series for x in exact[::3]]
             + [(x, s) for s in series for x in exact[1::3]]
             + list(itertools.product(series[::2], series[1::2])))
    errors = 0
    for (a, b), prec, (m, zexp, what) in itertools.product(
            pairs, (5, 17), ((2, 1, "Pm"), (3, 1, "Pm"), (3, 2, "S"))):
        want = _outcome(_pfamily_times_prefactor, m, a, b, prec, zexp, what)
        got = _outcome(lambda: sums._pfamily(m, a, b, prec, zexp, what)[0])
        assert got == want, (m, a, b, prec, what)
        errors += isinstance(want, tuple)
    assert errors > 0


def test_pm_multiplies_only_inside_the_prefactor(monkeypatch):
    # The prefactor's three infinite products take two series.mul calls;
    # the terms start at their product, so no final product is left.
    calls = []
    mul = se.mul
    monkeypatch.setattr(se, "mul", lambda x, y: calls.append(1) or mul(x, y))
    pmsum(3, Fraction(-7, 3), Fraction(5, 8), 40)
    assert len(calls) == 2


def test_family_members_equal_the_direct_calls():
    # Member k of a family over (a, b) = (c*q^ea, d*q^eb) equals the direct
    # call at (a*q^k, b*q^k), precision included.  A family that raises
    # raises as its member 0 does.  Base exponents -2..2 make members whose
    # terms get no lift from the shift identity, so a raise one short of
    # zexp*(count-1) leaves them a power short.
    rng = random.Random(20)
    coefs = [Fraction(3, 2), Fraction(-5, 7), Fraction(1), Fraction(2, 3), Fraction(-1),
             Fraction(4, 9)]
    precs = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120]
    kinds = [(m, 1, "Pm") for m in range(2, 7)] + [(3, 2, "S")]
    checked = errors = 0
    for i, ((m, zexp, what), ea, eb, _) in enumerate(
            itertools.product(kinds, range(-2, 3), range(-2, 3), range(3))):
        c, d = rng.choice(coefs), rng.choice(coefs)
        count = 1 + i % m
        prec = precs[i % len(precs)]

        def direct(k):
            a, b = qmon(c, ea + k), qmon(d, eb + k)
            return pmsum(m, a, b, prec) if what == "Pm" else ssum(a, b, prec)

        fam = _outcome(sums._pfamily, m, qmon(c, ea), qmon(d, eb), prec, zexp, what, count)
        if isinstance(fam, tuple):
            assert _outcome(direct, 0) == fam
            errors += 1
            continue
        assert len(fam) == count
        for k, got in enumerate(fam):
            assert got == direct(k), (what, m, c, ea, d, eb, count, prec, k)
            checked += 1
    assert checked > 700 and errors > 100


def test_pmfamily_checks_its_arguments():
    with pytest.raises(DomainError):
        sums.pmfamily(3, Fraction(2), Fraction(3), 0, 10)
    with pytest.raises(DomainError):
        sums.pmfamily(1, Fraction(2), Fraction(3), 2, 10)
    with pytest.raises(DomainError):
        sums.pmfamily(3, se.from_rational(2, 10), Fraction(3), 2, 10)
    a = se.from_rational(2, 10)
    assert sums.pmfamily(3, a, Fraction(3), 1, 10) == [pmsum(3, a, Fraction(3), 10)]


# -- Omega -------------------------------------------------------------------------------


def test_omega_b_zero():
    assert_eq_series(omega(Fraction(3), Fraction(0), 12),
                     theta_partial(Fraction(3), 12), 12)


def test_omega_a_zero():
    assert_eq_series(omega(Fraction(0), Fraction(4), 12),
                     theta_partial(Fraction(4), 12), 12)


def test_omega_brute_double_sum():
    a, b = Fraction(2), Fraction(3)
    acc = se.zero(14)
    for n in range(9):
        t = se.scale(brute_theta(qmon(a, n), 14), b ** n)
        t = se.shift(t, n * (n - 1) // 2)
        acc = se.add(acc, se.neg(t) if n % 2 else t)
    assert_eq_series(omega(a, b, 10), se.cap(acc, 10), 10)


# -- Theta_k ------------------------------------------------------------------------------


def test_thetak_antisymmetric_in_ab():
    for k in range(4):
        got = thetak(k, Fraction(3), Fraction(3), 10)
        assert got.is_zero


def test_thetak_order_bound():
    got = thetak(0, Fraction(2), Fraction(3), 10)
    assert got.order() is None or got.order() >= -1


def test_thetak_brute():
    k, a, b = 1, Fraction(2), Fraction(3)
    p = 16
    t1 = se.scale(brute_theta(qmon(b, k + 2), p), b / (a * (1)))
    t1 = se.mul(t1, se.divide(se.add(se.one(p), se.monomial(a, k + 1, p)),
                              se.add(se.one(p), se.monomial(1, 1, p))))
    t2 = se.scale(brute_theta(qmon(a, k + 2), p), a / b)
    t2 = se.mul(t2, se.divide(se.add(se.one(p), se.monomial(b, k + 1, p)),
                              se.add(se.one(p), se.monomial(1, 1, p))))
    t3 = se.shift(se.scale(se.mul(se.add(se.one(p), se.monomial(a, k, p)),
                                  brute_theta(qmon(b, k + 1), p)), 1 / (a + b)), -(k + 1))
    t4 = se.shift(se.scale(se.mul(se.add(se.one(p), se.monomial(b, k, p)),
                                  brute_theta(qmon(a, k + 1), p)), 1 / (a + b)), -(k + 1))
    want = se.add(se.sub(t1, t2), se.sub(t3, t4))
    assert_eq_series(thetak(k, a, b, 10), se.cap(want, 10), 10)


def test_thetak_preconditions():
    with pytest.raises(DegenerateParameterError):
        thetak(0, Fraction(0), Fraction(2), 10)
    with pytest.raises(DegenerateParameterError):
        thetak(0, Fraction(2), Fraction(-2), 10)


# -- T -------------------------------------------------------------------------------------


def test_t_direct_value_at_one():
    a = Fraction(1)
    p = 14
    th = brute_theta(qmon(a), p)
    thq = brute_theta(qmon(a, -1), p)
    den = se.add(se.add(se.one(p), se.monomial(1, 1, p)), se.monomial(1, 2, p))
    num1 = se.sub(se.add(se.from_rational(a - a * a, p), se.monomial(a, 1, p)),
                  se.monomial(1, 2, p))
    num2 = se.sub(se.add(se.monomial(a, 1, p), se.monomial(a, 2, p)),
                  se.add(se.from_rational(a * a, p), se.monomial(1, 4, p)))
    want = se.add(se.mul(se.divide(num1, den), th),
                  se.mul(se.divide(num2, se.monomial(a, 1, p)), thq))
    assert_eq_series(tsum(a, 8), se.cap(want, 8), 8)


def test_t_plus_t_minus_relation():
    # T(a) + T(-a) = 2(1+q)^2(1+q^2)/(1+q+q^2) P_4(a,-a)
    a = Fraction(2)
    p = 25
    lhs = se.add(tsum(a, p), tsum(-a, p))
    coef = se.divide(
        se.scale(se.mul(se.pow_int(se.add(se.one(p + 4), se.monomial(1, 1, p + 4)), 2),
                        se.add(se.one(p + 4), se.monomial(1, 2, p + 4))), 2),
        se.add(se.add(se.one(p + 4), se.monomial(1, 1, p + 4)), se.monomial(1, 2, p + 4)),
    )
    rhs = se.mul(coef, pmsum(4, a, -a, p + 4))
    assert_eq_series(lhs, rhs, p)


def test_t_zero_rejected():
    with pytest.raises(DegenerateParameterError):
        tsum(Fraction(0), 10)


# -- stated multi-term properties --------------------------------------------------------


def test_theorem_one_one_statement():
    # U_m(b) theta(q,a) = (q,a,b;q)_inf
    #   * sum_n (abq^(n-1);q)_n V_{m,n}(a,b) q^n / ((q,a;q)_n (b;q)_(m+n))
    rng = random.Random(14)
    p = 25
    for m in range(5):
        for _ in range(3):
            a, b = rand_fraction(rng), rand_fraction(rng)
            if a * b == 1 or a in (1, -1) or b in (1, -1):
                continue
            lhs = se.mul(usum(m, b, p), theta_partial(a, p))
            pre = se.mul(se.mul(brute_poch_inf(qmon(1, 1), p + 4),
                                brute_poch_inf(qmon(a), p + 4)),
                         brute_poch_inf(qmon(b), p + 4))
            acc = se.zero(p + 4)
            for n in range(p + 4):
                t = brute_poch(qmon(a * b, n - 1), n, p + 4)
                t = se.mul(t, vsum(m, n, a, b, p + 4))
                t = se.shift(t, n)
                t = se.divide(t, brute_poch(qmon(1, 1), n, p + 4))
                t = se.divide(t, brute_poch(qmon(a), n, p + 4))
                t = se.divide(t, brute_poch(qmon(b), m + n, p + 4))
                acc = se.add(acc, t)
            rhs = se.mul(pre, se.cap(acc, p + 2))
            assert_eq_series(lhs, rhs, p)


def test_theorem_two_one_statement():
    # theta(q,a) = sum_k lam(m,k,b) P_m(a q^k, b q^k) for m = 2..5
    rng = random.Random(15)
    p = 22
    for m in (2, 3, 4, 5):
        for _ in range(2):
            a, b = rand_fraction(rng), rand_fraction(rng)
            if a * b == 1:
                continue
            rhs = se.zero(p)
            for k in range(m):
                rhs = se.add(rhs, se.mul(lam(m, k, b, p + 2 * m),
                                         pmsum(m, qmon(a, k), qmon(b, k), p + 2 * m)))
            assert_eq_series(theta_partial(a, p), rhs, p)


def test_corollary_two_two_statement():
    # the product formula for m = 2..4
    rng = random.Random(16)
    p = 20
    for m in (2, 3, 4):
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a * b == 1:
            continue
        w = p + 2 * m + 6
        sides = []
        for par in (a, b):
            acc = se.zero(w)
            for k in range(m):
                t = brute_poch(qmon(1, m - k), k, w)
                t = se.mul_monomial(t, par ** k, k * (k - m + 1))
                t = se.divide(t, brute_poch(qmon(1, 1), k, w))
                t = se.mul(t, pmsum(m, qmon(a, k), qmon(b, k), w))
                acc = se.add(acc, t)
            sides.append(acc)
        lhs = se.mul(sides[1], sides[0])
        pre = se.mul(qcap(m, qmon(a, 1 - m), w + 2 * m), qcap(m, qmon(b, 1 - m), w + 2 * m))
        pre = se.mul(pre, se.mul(se.mul(brute_poch_inf(qmon(1, 1), w),
                                        brute_poch_inf(qmon(a), w)),
                                 brute_poch_inf(qmon(b), w)))
        acc = se.zero(w)
        for n in range(w):
            t = brute_poch(qmon(a * b, -1), 2 * n, w + 4)
            t = se.shift(t, n)
            for arg in (qmon(1, 1), qmon(a), qmon(b), qmon(a * b, -1)):
                t = se.divide(t, brute_poch(arg, n, w + 4))
            acc = se.add(acc, t)
        rhs = se.mul(pre, se.cap(acc, w))
        assert_eq_series(lhs, rhs, p)


# -- the precision contract -------------------------------------------------------


_A, _B = Fraction(3, 2), Fraction(-5, 7)
_CONTRACT = {
    "usum": lambda a, b, p: [usum(m, a, p) for m in range(4)],
    "qcap": lambda a, b, p: [qcap(m, a, p) for m in (2, 3, 4)],
    "lam": lambda a, b, p: [lam(m, k, a, p) for m in (2, 3, 4) for k in range(m)],
    "vsum": lambda a, b, p: [vsum(2, 3, a, b, p)],
    "pmsum": lambda a, b, p: [pmsum(m, a, b, p) for m in (2, 3)],
    "ssum": lambda a, b, p: [ssum(a, b, p)],
    "omega": lambda a, b, p: [omega(a, b, p)],
    "thetak": lambda a, b, p: [thetak(k, a, b, p) for k in (0, 1, 2)],
    "tsum": lambda a, b, p: [tsum(a, p)],
    "theta_partial": lambda a, b, p: [theta_partial(a, p)],
    "theta_full": lambda a, b, p: [theta_full(a, p)],
    "qpoch_infinite": lambda a, b, p: [qpoch_infinite(a, p)],
    "bhs": lambda a, b, p: [bhs([a, b], [qmon(2, 3)], qmon(1, 1), p)],
}
_TWO_ARGS = {"vsum", "pmsum", "ssum", "omega", "thetak", "bhs"}


@pytest.mark.parametrize("name", sorted(_CONTRACT))
def test_exact_arguments_reach_prec(name):
    # Arguments 3/2*q^e (and -5/7*q^f) for e, f in -8..4.  lam, tsum and
    # thetak used to fall short for negative orders, e.g. lam(2, 1, 2/q^7, 10)
    # returned O(q^9), tsum(3/2/q^4, 10) O(q^2).
    short = []
    for p in (1, 10, 25):
        for e in range(-8, 5):
            for f in range(-8, 5) if name in _TWO_ARGS else (0,):
                for got in _CONTRACT[name](qmon(_A, e), qmon(_B, f), p):
                    if got.prec < p:
                        short.append((e, f, p, got.prec))
    assert short == []


# N/D arguments: thetak's a + b cancels at q^4 in the first pair and at q^1
# in the second, and Q_3(b/q^2) = -7q^4(1 + q)/(2 - 7q^5) cancels in lam.
# thetak and lam returned O(q^38) for 40 and O(q^12) for 20 on the first
# pair and on the lam argument.
_ND = [_exact(((4, -3),), ((0, 3), (2, 2), (5, -1))), _exact(((4, 2),), ((0, 2), (1, 5))),
       _exact(((1, 1),), ((0, 1), (1, -1))), qmon(-1, 1),
       _exact(((-2, 3), (-1, -1)), ((0, 1), (2, 1))), _exact(((0, 1), (1, 1)), ((0, 1), (1, -2)))]
_LAM_ND = _exact(((1, -2), (5, -7)), ((0, 2), (5, -7)))


def test_exact_rational_arguments_reach_prec():
    calls = [(("thetak", k, i), lambda p, k=k, i=i: thetak(k, _ND[i], _ND[i + 1], p))
             for k in range(3) for i in (0, 2)]
    calls += [(("tsum", i), lambda p, i=i: tsum(_ND[i], p)) for i in (0, 2, 4, 5)]
    calls += [(("omega", i), lambda p, i=i: omega(_ND[i], _ND[i + 1], p)) for i in (0, 2, 4)]
    calls += [(("lam", m, k), lambda p, m=m, k=k: lam(m, k, _LAM_ND, p))
              for m in (2, 3, 4) for k in range(m)]
    short = [(label, p, got.prec) for p in (1, 10, 20, 40) for label, call in calls
             for got in [call(p)] if got.prec < p]
    assert short == []


def _thetak_by_pads(k, a, b, prec):
    """Theta_k as sums.thetak built it before kernels.theta_combination:
    every coefficient a series at a working precision padded by
    thetak_dip and the divisors' orders."""
    av, bv = as_value(a), as_value(b)
    da, db = ord_of(av), ord_of(bv)
    p = prec + sums.thetak_dip(k, da, db) + max(0, da, db)
    apb = se.add(to_series(av, p), to_series(bv, p))
    if apb.is_zero:
        raise DegenerateParameterError("thetak needs a + b nonzero")
    one_q = se.add(se.one(p), se.monomial(1, 1, p))

    def half(x, y):
        c1 = se.divide(_mul_value(one_minus(_val_neg(x), k + 1, p), y),
                       se.mul(to_series(x, p), one_q))
        c3 = se.shift(se.divide(one_minus(_val_neg(x), k, p), apb), -(k + 1))
        return se.add(se.mul(c1, theta_partial(_val_shift(y, k + 2), p)),
                      se.mul(c3, theta_partial(_val_shift(y, k + 1), p)))

    return se.cap(se.sub(half(av, bv), half(bv, av)), prec)


def _tsum_by_pads(a, prec):
    """T(a) as sums.tsum built it before kernels.theta_combination."""
    av = as_value(a)
    d = ord_of(av)
    p = prec + theta_dip(d - 1) + max(1, abs(d + 1), 2 * d - 3)
    A = to_series(av, p)
    q1, q2 = se.monomial(1, 1, p), se.monomial(1, 2, p)
    A2, Aq = se.mul(A, A), se.mul(A, q1)
    den1 = se.add(se.add(se.one(p), q1), q2)
    num1 = se.add(se.sub(A, A2), se.sub(Aq, q2))
    num2 = se.sub(se.add(Aq, se.mul(A, q2)), se.add(A2, se.shift(q2, 2)))
    res = se.add(se.mul(se.divide(num1, den1), theta_partial(av, p)),
                 se.mul(se.divide(num2, se.shift(A, 1)), theta_partial(_val_shift(av, -1), p)))
    return se.cap(res, prec)


def _omega_by_pads(a, b, prec):
    """Omega(a, b) as sums.omega built it before kernels.theta_combination."""
    av, bv = as_value(a), as_value(b)
    db = ord_of(bv)
    if db is None:
        return theta_partial(av, prec)
    da = ord_of(av) or 0

    def terms():
        yield se.zero(prec)
        bpow, n = qmon(1), 0
        while n < -da or n + db < 0 or n * (n - 1) // 2 + n * db - theta_dip(da + n) < prec:
            sh = n * (n - 1) // 2
            th = theta_partial(_val_shift(av, n),
                               prec + 2 * theta_dip(da + n) + max(0, -sh - n * db))
            term = se.shift(_mul_value(th, bpow), sh)
            yield se.neg(term) if n % 2 else term
            bpow = _val_mul(bpow, bv)
            n += 1

    return se.cap(se.add_all(terms()), prec)


def test_theta_products_match_the_padded_formulas():
    # Monomial, N/D and series arguments (leading coefficient 1 or not, and
    # a + b cancelling), k = 0..2, p in {1, 10, 25}: the values agree to
    # joint precision, the precision is never lower, and exact monomial
    # arguments give structurally equal results.
    def ser(*terms, prec):
        return se.add_all([se.zero(prec)] + [se.monomial(c, e, prec) for c, e in terms])

    mono = [qmon(Fraction(3, 2), -3), qmon(Fraction(-5, 7), 0), qmon(2, 2), qmon(1, -1)]
    nd = [_ND[0], _ND[1], _ND[4], _ND[5]]
    series = [ser((1, 0), (Fraction(2, 3), 1), prec=9), ser((-3, -2), (1, 0), prec=14),
              ser((Fraction(-4, 3), 2), (5, 4), prec=20)]
    args = mono + nd + series
    pairs = [(a, b) for a in args for b in args if a is not b][::3]
    pairs += [(_ND[0], _ND[1]), (qmon(1, 0), ser((-1, 0), (1, 2), prec=16))]
    cases = [("tsum", (a,)) for a in args] + [("omega", ab) for ab in pairs]
    cases += [("thetak", (k,) + ab) for k in range(3) for ab in pairs[k::3]]
    refs = {"tsum": _tsum_by_pads, "omega": _omega_by_pads, "thetak": _thetak_by_pads}
    for (name, xs), p in itertools.product(cases, (1, 10, 25)):
        old, new = refs[name](*xs, p), getattr(sums, name)(*xs, p)
        assert se.eq_to_prec(old, new)[0], (name, xs, p)
        assert new.prec >= old.prec, (name, xs, p, old.prec, new.prec)
        if all(isinstance(x, (int, QMonomial)) for x in xs):
            assert new == old, (name, xs, p)


@pytest.mark.parametrize("name", sorted(_CONTRACT))
def test_precision_below_one_is_rejected(name):
    for p in (0, -3):
        with pytest.raises(PrecisionError, match="precision >= 1"):
            _CONTRACT[name](qmon(_A), qmon(_B), p)


def test_indices_out_of_range_are_domain_errors():
    a, b = qmon(_A), qmon(_B)
    for call, message in [(lambda: usum(-1, b, 10), "usum needs m >= 0"),
                          (lambda: vsum(-1, 2, a, b, 10), "vsum needs m, n >= 0"),
                          (lambda: vsum(2, -1, a, b, 10), "vsum needs m, n >= 0"),
                          (lambda: qcap(1, b, 10), "qcap needs m >= 2"),
                          (lambda: thetak(-1, a, b, 10), "thetak needs k >= 0")]:
        with pytest.raises(DomainError, match=message):
            call()
