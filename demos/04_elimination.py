"""Expressing P_m(a,b) through partial theta values by exact linear algebra.

The relation theta(q,a) = sum_k lam(m,k,b) P_m(a q^k, b q^k), instantiated
at shifted parameters and with a and b swapped, gives a square linear
system whose unknowns are the shifted P_m values.  Each row is scaled so
that its entries are integer polynomials in q.  The solve takes det B and
the adjugate row of the t = 0 unknown, P_m(a,b) itself, modulo one large
prime at integer points, interpolates and lifts them, and certifies the
result exactly over Z[q] before any coefficient is expanded as a series.
Run: python3 demos/04_elimination.py
"""

from fractions import Fraction

from qtheta import build_system, express_pm, gauss_solve

a, b = Fraction(2), Fraction(3)

# m = 2: the combination collapses to exact constants a/(a-b) and -b/(a-b).
combo = express_pm(2, a, b, 25)
print("P_2(2,3) = c0*theta(2) + d0*theta(3) with")
print("  c0 =", combo.coeff_a[0].constant_value())
print("  d0 =", combo.coeff_b[0].constant_value())
print("  residual checked to O(q^%d)" % combo.checked_prec)

# m = 3: four theta values theta(a), theta(b), theta(a/q), theta(b/q);
# the coefficients are genuine series (rational functions of q).
combo = express_pm(3, a, b, 20)
print("\nP_3(2,3) coefficients:")
for k, c in enumerate(combo.coeff_a):
    print("  theta(a/q^%d):" % k, c)
for k, c in enumerate(combo.coeff_b):
    print("  theta(b/q^%d):" % k, c)
print("  residual checked to O(q^%d)" % combo.checked_prec)


def poly(coeffs, lo=0):
    """sum_i coeffs[i] q^(lo+i), integer coefficients, as text."""
    text = ""
    for e, c in enumerate(coeffs, lo):
        if c:
            mono = "" if e == 0 else "q" if e == 1 else "q^%d" % e
            body = mono if abs(c) == 1 and mono else "*".join(filter(None, [str(abs(c)), mono]))
            text += ("-" if c < 0 else "") + body if not text else (" - " if c < 0 else " + ") + body
    return text or "0"


# The exact system for m = 3: entries in Z[q], unknowns X_t = P_3(a q^t, b q^t).
system = build_system(3, a, b)
print("\nm=3 system rows (unknowns X_t, t in %s):" % system.shifts)
for row, scale, (kind, j) in zip(system.matrix, system.scales, system.rhs_labels):
    print("  ", [poly(e) for e in row], "= (%s) theta(%s/q^%d)" % (poly(scale), kind, j))
[exact] = gauss_solve(system, want=[0])
print("det B =", poly(exact.det[1], exact.det[0]))

# Higher m just means bigger systems: 2(m-1) unknowns.
for m in (4, 5):
    combo = express_pm(m, a, b, 20)
    print("m=%d residual zero to O(q^%d)" % (m, combo.checked_prec))
