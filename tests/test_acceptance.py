"""Acceptance criteria, one test per criterion, each printing a PASS line.

1. Full-corpus verification at order 30, 3 trials, seed 42: every built-in
   identity passes with exact-zero residuals, within the wall-time target.
2. Closed coefficients: lam(2,.,b) = (1, b), lam(3,.,b) = (q/(q+b),
   b(1+q)/(q+b), b^2 q/(q+b)); Q_2(b) = 1 and Q_3(b) = 1 + bq.
3. Eliminator: m=2 gives the exact constants a/(a-b), -b/(a-b); m=3
   residual zero to >= q^20 with coefficients matching the four-theta
   statement; m=4,5 residuals zero.
4. Kernel oracles: two-sided theta vs. the triple product to q^40;
   (q;q)_inf vs. an independent product expansion to q^30 (pentagonal
   pattern); U(0,b) vs. the partial theta to q^30.
5. Property suites: ring/precision laws (>= 1000 cases), splice and
   reflection, theta shift-down, DSL/native agreement, mutation
   sensitivity, byte-identical JSON for a fixed seed.
"""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

from qtheta import dsl
from qtheta import series as se
from qtheta.eliminator import express_pm
from qtheta.identities import load_registry
from qtheta.kernels import qpoch_finite, qpoch_infinite, qpoch_multi, theta_partial, theta_full
from qtheta.sums import lam, qcap, usum
from qtheta.verifier import reports_to_json, verify_all, verify_identity

from helpers import assert_eq_series, qmon, rand_fraction

WALL_TIME_LIMIT_S = 120.0

# The byte-identical-output gate: sha256 of the corpus JSON without timings.
# A change that alters the output on purpose updates this hash.
CORPUS_JSON_SHA256 = "bcc959ce9a7bceab09f36c634159a138d606bb7e282f2b999fbf8ad86ccc5cda"


def test_acceptance_1_full_corpus_verification():
    t0 = time.perf_counter()
    reports, summary = verify_all(order=30, trials=3, seed=42)
    elapsed = time.perf_counter() - t0
    failed = [r.identity for r in reports if not r.passed]
    assert summary["total"] >= 40
    assert not failed, "failing identities: %s" % failed
    for r in reports:
        for t in r.trials:
            assert t.status == "zero" and t.effective_precision >= 30
    assert elapsed <= WALL_TIME_LIMIT_S, "verification took %.1fs" % elapsed
    js = reports_to_json(reports, with_timing=False)
    assert hashlib.sha256(js.encode()).hexdigest() == CORPUS_JSON_SHA256
    print("\nACCEPTANCE 1: PASS - %d/%d identities verified at order 30 "
          "(3 trials, seed 42) in %.1fs" % (summary["passed"], summary["total"], elapsed))


def test_acceptance_2_closed_coefficients():
    rng = random.Random(2024)
    for _ in range(3):
        b = rand_fraction(rng)
        assert lam(2, 0, b, 20).constant_value() == 1
        assert lam(2, 1, b, 20).constant_value() == b
        p = 26
        qpb = se.add(se.monomial(1, 1, p), se.from_rational(b, p))
        one_q = se.add(se.one(p), se.monomial(1, 1, p))
        assert_eq_series(lam(3, 0, b, 20), se.divide(se.monomial(1, 1, p), qpb), 20)
        assert_eq_series(lam(3, 1, b, 20), se.divide(se.scale(one_q, b), qpb), 20)
        assert_eq_series(lam(3, 2, b, 20), se.divide(se.monomial(b * b, 1, p), qpb), 20)
        assert qcap(2, b, 20).constant_value() == 1
        q3 = qcap(3, b, 20)
        assert q3.coeff(0) == 1 and q3.coeff(1) == b
        assert all(q3.coeff(e) == 0 for e in range(2, 20))
    print("\nACCEPTANCE 2: PASS - lambda and Q closed forms reproduced at "
          "3 random rational b")


def test_acceptance_3_eliminator_reproduction():
    rng = random.Random(77)
    checked = 0
    while checked < 3:
        a, b = rand_fraction(rng), rand_fraction(rng)
        if a in (b, -b) or a * b == 1 or a + b == 0:
            continue
        combo2 = express_pm(2, a, b, 25)
        assert combo2.coeff_a[0].constant_value() == a / (a - b)
        assert combo2.coeff_b[0].constant_value() == -b / (a - b)
        combo3 = express_pm(3, a, b, 20)
        assert combo3.checked_prec >= 20
        # coefficients must match the four-theta statement's rational
        # functions, evaluated by series division
        p = 26
        one_q = se.add(se.one(p), se.monomial(1, 1, p))
        mult = se.divide(
            se.from_rational(-a * b * (a + b), p),
            se.mul(se.sub(se.from_rational(a, p), se.monomial(b, 1, p)),
                   se.sub(se.from_rational(b, p), se.monomial(a, 1, p))),
        )
        mult = se.scale(se.mul(mult, one_q), Fraction(1, a - b))
        expect = {
            ("a", 0): se.mul(mult, se.divide(
                se.add(se.from_rational(b, p), se.monomial(1, 1, p)),
                se.scale(one_q, b / a))),
            ("b", 0): se.neg(se.mul(mult, se.divide(
                se.add(se.from_rational(a, p), se.monomial(1, 1, p)),
                se.scale(one_q, a / b)))),
            ("a", 1): se.mul(mult, se.scale(
                se.add(se.from_rational(b, p), se.monomial(1, 2, p)),
                Fraction(1, a + b))),
            ("b", 1): se.neg(se.mul(mult, se.scale(
                se.add(se.from_rational(a, p), se.monomial(1, 2, p)),
                Fraction(1, a + b)))),
        }
        for (kind, j), want in expect.items():
            got = (combo3.coeff_a if kind == "a" else combo3.coeff_b)[j]
            assert_eq_series(got, want, 18)
        checked += 1
    for m in (4, 5):
        combo = express_pm(m, Fraction(2), Fraction(3), 20)
        assert combo.checked_prec >= 20
    print("\nACCEPTANCE 3: PASS - eliminator reproduces the m=2 constants, the "
          "m=3 coefficients, and zero residuals for m=4,5")


def test_acceptance_4_kernel_oracles():
    rng = random.Random(4040)
    # two-sided theta vs triple product at q^40
    done = 0
    while done < 5:
        x = rand_fraction(rng, exclude=(0,))
        lhs = theta_full(qmon(x), 40)
        rhs = qpoch_multi([qmon(1, 1), qmon(x), qmon(1 / x, 1)], 40)
        assert_eq_series(lhs, rhs, 40)
        done += 1
    # Euler product to q^30 vs an independent integer-list expansion
    want = [1] + [0] * 30
    for i in range(1, 31):
        nxt = list(want)
        for e in range(len(want) - i):
            nxt[e + i] -= want[e]
        want = nxt
    got = qpoch_infinite(qmon(1, 1), 31)
    assert [got.coeff(e) for e in range(31)] == want
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-5, 6)}
    for e, c in enumerate(want):
        assert (c != 0) == (e in pentagonal)
        assert c in (-1, 0, 1)
    # U(0, b) vs the partial theta at q^30
    for _ in range(3):
        b = rand_fraction(rng)
        assert_eq_series(usum(0, b, 30), theta_partial(b, 30), 30)
    print("\nACCEPTANCE 4: PASS - triple product to q^40, pentagonal expansion "
          "to q^30, and the U(0,b)=theta split all confirmed")


def test_acceptance_5_property_suites():
    # ring and precision laws, >= 1000 randomized cases
    rng = random.Random(50505)
    from test_series import _rand_series
    for _ in range(1000):
        x, y = _rand_series(rng), _rand_series(rng)
        assert se.add(x, y) == se.add(y, x)
        assert se.mul(x, y) == se.mul(y, x)
        assert se.add(x, y).prec == min(x.prec, y.prec)
        assert se.mul(x, y).prec == min(x.prec + y._ord(), y.prec + x._ord())
    # splice and reflection
    for _ in range(6):
        x = rand_fraction(rng, exclude=(0,))
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        whole = qpoch_finite(qmon(x), m + n, 14)
        assert_eq_series(whole, se.mul(qpoch_finite(qmon(x), m, 14),
                                       qpoch_finite(qmon(x, m), n, 14)), 13)
        k = rng.randint(0, 6)
        refl = se.mul_monomial(qpoch_finite(qmon(1 / x, 1 - k), k, 20 + 2 * k),
                               Fraction(-1) ** k * x ** k, k * (k - 1) // 2)
        assert_eq_series(qpoch_finite(qmon(x), k, 14), refl, 12)
    # theta shift-down
    for _ in range(5):
        a = rand_fraction(rng)
        lhs = theta_partial(qmon(a, -1), 12)
        rhs = se.sub(se.one(12), se.mul_monomial(theta_partial(qmon(a), 14), a, -1))
        assert_eq_series(lhs, rhs, 12)
    # DSL/native agreement across every builtin (full checks in test_dsl)
    import test_dsl
    for name in dir(test_dsl):
        if name.startswith("test_agree_"):
            getattr(test_dsl, name)()
    # mutation sensitivity
    registry = load_registry()
    for ident in random.Random(0).sample(registry, 5):
        bumped = dsl.parse("(%s) + q^11" % dsl.render(ident.rhs))
        mutated = dataclasses.replace(ident, rhs=bumped)
        assert not verify_identity(mutated, 12, 1, 4).passed
    # byte-identical JSON at a fixed seed
    r1, _ = verify_all(order=10, trials=2, seed=6, name_filter="eq4.1")
    r2, _ = verify_all(order=10, trials=2, seed=6, name_filter="eq4.1")
    assert reports_to_json(r1, with_timing=False) == reports_to_json(r2, with_timing=False)
    print("\nACCEPTANCE 5: PASS - ring laws (1000 cases), splice/reflection, "
          "shift-down, DSL agreement, mutation sensitivity, stable JSON")
