"""Expressing P_m(a,b) through partial theta values by linear algebra.

The relation theta(q,a) = sum_k lam(m,k,b) P_m(a q^k, b q^k), instantiated
at shifted parameters and with a and b swapped, gives a square linear
system over the series field whose unknowns are the shifted P_m values.
Gauss-Jordan on [A | I] with minimal-order pivots solves it exactly: the
right half of each unknown's pivot row is its combination of theta
values.  The t = 0 unknown is P_m(a,b) itself.
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

# The raw system for m = 2, for the curious: 2x2 with constant entries.
system = build_system(2, a, b, 15)
print("\nm=2 system rows (unknowns X_t = P_2(a q^t, b q^t), t in {0, 1}):")
for row, label in zip(system.matrix, system.rhs_labels):
    print("  ", [str(entry.constant_value()) for entry in row], "=", "theta(%s)" % label[0])

# Solutions are unique over the series field, so the pivot strategy
# cannot change them.
sol_min = gauss_solve(system, pivot="min_order")
sol_first = gauss_solve(system, pivot="first")
same = all(
    (x - y).is_zero
    for c1, c2 in zip(sol_min, sol_first)
    for x, y in zip(c1.coeff_a + c1.coeff_b, c2.coeff_a + c2.coeff_b)
)
print("\npivot-choice invariance:", same)

# Higher m just means bigger systems: 2(m-1) unknowns.
for m in (4, 5):
    combo = express_pm(m, a, b, 20)
    print("m=%d residual zero to O(q^%d)" % (m, combo.checked_prec))
