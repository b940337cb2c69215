"""Express P_m(a,b) as a linear combination of partial theta values.

Instantiating theta(q, a) = sum_k lam(m,k,b) P_m(a q^k, b q^k) at the
shifted parameter pairs (a/q^j, b/q^j) for j = 0..m-2, together with the
a<->b swapped family, yields a square system B X = (theta values) in the
unknowns X_t = P_m(a q^t, b q^t), t = -(m-2)..m-1.  For exact a and b it is
solved exactly.

Row (v, j) carries lam(m, k, c q^-j), c = cn/cd the other parameter, which
is [m-1,k]_q c^k q^f(k) / Q_m(c q^(1-m-j)) with f(k) = k (k+1-m-j).
build_system multiplies the row by cd^(m-1) q^L Q_m(c q^(1-m-j)),
L = -min f, so every entry is the integer polynomial
[m-1,k]_q cn^k cd^(m-1-k) q^(L+f(k)).  (A monomial parameter c q^e reads
j - e for j.)

gauss_solve is a modular algorithm (von zur Gathen and Gerhard, Modern
Computer Algebra, 3rd ed., ch. 5).  Modulo one prime P it takes det B and
the adjugate row N of each wanted unknown (N B = det B e_t) at integer
points, interpolates them over the exponent spans that min-plus and
max-plus assignments of the entries' lowest and highest exponents bound,
and lifts the symmetric residues, which is exact because P exceeds twice a
bound on every coefficient.  The lift is then certified over Z[q]: when
N B = det B e_t holds exactly with det B nonzero, N / det B is row t of
B^-1, whatever went before.  A failed certificate raises EliminationError;
nothing unchecked is returned.

express_pm expands each coefficient N_r scale_r / det B by one exact series
division, to the target precision plus the dip of its theta value, and
checks the combination against the direct P_m evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .errors import DegenerateParameterError, DomainError, EliminationError, PrecisionError
from . import series as se
from .kernels import (QMonomial, _dense_mul, _val_shift, as_value, ord_of, theta_combination,
                      theta_dip)
from .sums import (
    _gauss,
    lam,  # unused; bench/selftest.py checks that the tracer wraps this binding
    pmsum,
)

__all__ = ["PolynomialSystem", "ExactCombination", "ThetaCombination", "build_system",
           "gauss_solve", "express_pm"]

# The moduli gauss_solve may use, ascending: Mersenne primes and 2^255 - 19.
_PRIMES = tuple(sorted([2**p - 1 for p in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                                           3217, 4253, 4423)] + [2**255 - 19]))


@dataclass
class PolynomialSystem:
    """Theorem 2.1's shifted system with every entry in Z[q].

    Row r reads sum_c matrix[r][c] X_(shifts[c]) = scales[r] theta(q, v/q^j)
    for rhs_labels[r] = (v, j), v being 'a' or 'b', where X_t stands for
    P_m(a q^t, b q^t); scales[r] is what the row of lam coefficients was
    multiplied by.  Entries and scales are integer coefficient tuples, q^0
    first; () is zero.
    """

    m: int
    a: QMonomial
    b: QMonomial
    shifts: list
    matrix: list
    scales: list
    rhs_labels: list


@dataclass
class ExactCombination:
    """X_t = sum_r numer[r] / det theta(q, v/q^j), exactly, for (v, j) the
    system's rhs_labels[r].

    det is det B and numer[r] = N_r scales[r] for the adjugate row N of t,
    each a (valuation, coefficient tuple) pair of Z[q]; (0, ()) is zero.
    """

    det: tuple
    numer: list

    def expand(self, r, prec):
        """Coefficient r as a series to O(q^prec), by one exact division."""
        lo, num = self.numer[r]
        if not num:
            return se.zero(prec)
        dlo, den = self.det
        # divide's precision is min(x.prec - dlo, y.prec + lo - 2 dlo); both
        # operands are exact, so each is given what prec asks for.
        x = se._make(lo, list(num), 1, prec + dlo)
        y = se._make(dlo, list(den), 1, max(prec + 2 * dlo - lo, dlo + 1))
        return se.divide(x, y)


@dataclass
class ThetaCombination:
    """sum_k coeff_a[k]*theta(q, a/q^k) + coeff_b[k]*theta(q, b/q^k)."""

    m: int
    coeff_a: list
    coeff_b: list
    checked_prec: int = field(default=0)

    def evaluate(self, a, b, prec):
        """The combination to O(q^prec) where the coefficients' own
        precisions allow, by kernels.theta_combination's one rule: each
        theta value is taken at prec - ord(c) for its coefficient c, and an
        exact c would multiply without loss."""
        av, bv = as_value(a), as_value(b)
        return theta_combination([(1, c, _val_shift(v, -k))
                                  for v, cs in ((av, self.coeff_a), (bv, self.coeff_b))
                                  for k, c in enumerate(cs)], prec)


def build_system(m, a, b):
    """Assemble the 2(m-1) x 2(m-1) system in Z[q] for exact a and b."""
    if m < 2:
        raise DomainError("build_system needs m >= 2")
    av, bv = as_value(a), as_value(b)
    if not (isinstance(av, QMonomial) and isinstance(bv, QMonomial)):
        raise DomainError("build_system needs exact a and b, not series")
    gauss, qgauss = _gauss(m - 1), _gauss(m - 2)
    matrix, scales, rhs_labels = [], [], []
    for j in range(m - 1):
        for kind, v in (("a", bv), ("b", av)):
            cn, cd = v.coef.numerator, v.coef.denominator
            f = [k * (k + 1 - m + v.exp - j) for k in range(m)]
            low = min(f)
            row = [()] * (2 * (m - 1))
            for k in range(m):
                c = cn**k * cd**(m - 1 - k)
                if c:
                    row[k - j + m - 2] = (0,) * (f[k] - low) + tuple(c * g for g in gauss[k])
            # Q_m(c q^(1-m-j))'s term i is [m-2,i]_q c^i q^f(i).
            scale = [0] * max(f[i] - low + len(g) for i, g in enumerate(qgauss))
            for i, g in enumerate(qgauss):
                c = cn**i * cd**(m - 1 - i)
                for d, x in enumerate(g, f[i] - low):
                    scale[d] += c * x
            if not any(scale):
                raise DegenerateParameterError("Q_%d(%s*q^%d) vanishes"
                                               % (m, v.coef, 1 - m + v.exp - j))
            matrix.append(row)
            scales.append(tuple(scale))
            rhs_labels.append((kind, j))
    return PolynomialSystem(m, av, bv, list(range(2 - m, m)), matrix, scales, rhs_labels)


def _trim(lo, coeffs):
    """(valuation, coefficient tuple) of sum_i coeffs[i] q^(lo+i)."""
    i, n = 0, len(coeffs)
    while i < n and not coeffs[i]:
        i += 1
    while n > i and not coeffs[n - 1]:
        n -= 1
    return (lo + i, tuple(coeffs[i:n])) if i < n else (0, ())


def _assignments(ends, rows, skip):
    """Per prefix of rows: {mask of the columns used: (least sum of lowest
    exponents, greatest sum of highest exponents)} over the injective
    assignments of the prefix's rows to nonzero entries off column skip."""
    layers = [{0: (0, 0)}]
    for r in rows:
        nxt = {}
        for mask, (lo, hi) in layers[-1].items():
            for c, elo, ehi in ends[r]:
                bit = 1 << c
                if mask & bit or c == skip:
                    continue
                old = nxt.get(mask | bit)
                nxt[mask | bit] = ((lo + elo, hi + ehi) if old is None
                                   else (min(old[0], lo + elo), max(old[1], hi + ehi)))
        layers.append(nxt)
    return layers


def _minor_spans(ends, t):
    """For each row r, bounds (lowest, highest) on the exponents of the
    cofactor of entry (r, t), or None when every term has a zero entry."""
    n = len(ends)
    pre = _assignments(ends, range(n), t)
    suf = _assignments(ends, range(n - 1, -1, -1), t)
    full = ((1 << n) - 1) ^ (1 << t)
    spans = []
    for r in range(n):
        after = suf[n - 1 - r]
        both = [(lo + after[full ^ mask][0], hi + after[full ^ mask][1])
                for mask, (lo, hi) in pre[r].items() if full ^ mask in after]
        spans.append((min(lo for lo, _ in both), max(hi for _, hi in both)) if both else None)
    return spans


def _modulus(height):
    """The first of _PRIMES above twice height, so that symmetric residues
    lift every integer of absolute value <= height."""
    for p in _PRIMES:
        if p > 2 * height:
            return p
    raise EliminationError("coefficient height bound 2^%d exceeds the largest modulus"
                           % height.bit_length())


def _inverses(xs, p):
    """The inverses of the nonzero xs mod p, by one modular inversion."""
    pre = [1]
    for x in xs:
        pre.append(pre[-1] * x % p)
    inv = pow(pre[-1], -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * pre[i] % p
        inv = inv * xs[i] % p
    return out


def _at_point(terms, top, x, cols, p):
    """det B(x) mod p and, for each column t in cols, the adjugate row N(x)
    with N B(x) = det e_t; (0, None) when B(x) is singular mod p.  top is
    the highest exponent of an entry."""
    n = len(terms)
    xp = [1]
    for _ in range(top):
        xp.append(xp[-1] * x)
    # Rows of B(x)^T, each followed by the right-hand sides e_t.
    A = [[sum(c * xp[i] for i, c in terms[r][col]) % p for r in range(n)]
         + [int(col == t) for t in cols] for col in range(n)]
    # Forward elimination without division: a row updated at step c is
    # multiplied by the pivot, which scale records.
    sign, scale = 1, 1
    for c in range(n):
        piv_row = next((i for i in range(c, n) if A[i][c]), None)
        if piv_row is None:
            return 0, None
        if piv_row != c:
            A[c], A[piv_row] = A[piv_row], A[c]
            sign = -sign
        pr = A[c]
        piv = pr[c]
        for i in range(c + 1, n):
            ri = A[i]
            f = ri[c]
            if f:
                ri[c + 1:] = [(piv * u - f * v) % p for u, v in zip(ri[c + 1:], pr[c + 1:])]
                scale = scale * piv % p
    *inv_piv, inv_scale = _inverses([A[c][c] for c in range(n)] + [scale], p)
    det = sign * inv_scale
    for c in range(n):
        det = det * A[c][c] % p
    adj = []
    for k in range(len(cols)):
        y = [0] * n
        for c in range(n - 1, -1, -1):
            row = A[c]
            s = row[n + k] - sum(row[j] * y[j] for j in range(c + 1, n))
            y[c] = s * inv_piv[c] % p
        adj.append([det * v % p for v in y])
    return det, adj


def _interpolate(x0, vals, p):
    """Coefficients, q^0 first, of the polynomial of degree < len(vals)
    whose value at q = x0 + i is vals[i] mod p, by Newton's forward
    differences: the coefficient of the falling product
    (q - x0)...(q - x0 - i + 1) is the i-th difference over i!."""
    k = len(vals)
    c = list(vals)
    for step in range(1, k):
        for i in range(k - 1, step - 1, -1):
            c[i] -= c[i - 1]
    inv_fact = [pow(factorial(k - 1), -1, p)]
    for i in range(k - 1, 0, -1):
        inv_fact.append(inv_fact[-1] * i % p)
    inv_fact.reverse()
    poly = [c[-1] * inv_fact[-1] % p]
    for i in range(k - 2, -1, -1):
        x = x0 + i
        poly = ([(c[i] * inv_fact[i] - x * poly[0]) % p]
                + [(poly[j - 1] - x * poly[j]) % p for j in range(1, len(poly))] + [poly[-1]])
    return poly


def _lift(lo, residues, p):
    """The integer polynomial q^lo sum_i r_i q^i with r_i the symmetric residues."""
    half = p // 2
    return _trim(lo, [r - p if r > half else r for r in residues])


def _certify(terms, top, numer, det, col):
    """Raise unless det B != 0 and sum_r N_r B_(r,c) = det B if c == col
    else 0, exactly: then N / det B is row col of B^-1."""
    if not det[1]:
        raise EliminationError("singular system: det B vanishes")
    n = len(terms)
    size = max(lo + len(cs) for lo, cs in numer) + top + 1
    for c in range(n):
        acc = [0] * size
        for r in range(n):
            lo, cs = numer[r]
            for i, b in terms[r][c]:
                for k, v in enumerate(cs, lo + i):
                    acc[k] += b * v
        if _trim(0, acc) != (det if c == col else (0, ())):
            raise EliminationError("certificate failed: N B != det B e_t in column %d" % c)


def gauss_solve(system, want=None):
    """The exact combinations of the unknowns X_t, t in ``want`` (default:
    every shift), in ``want`` order; EliminationError when B is singular."""
    want = list(system.shifts) if want is None else list(want)
    for i, t in enumerate(want):
        if t not in system.shifts:
            raise DomainError("gauss_solve: no unknown t=%r among shifts %r" % (t, system.shifts))
        if t in want[:i]:
            raise DomainError("gauss_solve: unknown t=%r wanted twice" % (t,))
    cols = [system.shifts.index(t) for t in want]
    n = len(system.matrix)
    terms = [[[(i, c) for i, c in enumerate(e) if c] for e in row] for row in system.matrix]
    ends = [[(c, e[0][0], e[-1][0]) for c, e in enumerate(row) if e] for row in terms]
    top = max(hi for row in ends for _, _, hi in row)
    det_span = _assignments(ends, range(n), None)[-1].get((1 << n) - 1)
    if det_span is None:
        raise EliminationError("singular system: every term of det B has a zero entry")
    spans = [det_span] + [s for c in cols for s in _minor_spans(ends, c)]
    # Every coefficient of det B or a cofactor is at most the product of
    # the rows' l1 norms.
    height = 1
    for row in system.matrix:
        height *= max(1, sum(abs(v) for e in row for v in e))
    p = _modulus(height)
    count = max(hi - lo + 1 for lo, hi in filter(None, spans))
    # Values at the consecutive points x0, x0 + 1, ...; a point where B is
    # singular mod p starts the run again after it.
    x0, values, misses = 1, [], 0
    while len(values) < count:
        det, adj = _at_point(terms, top, x0 + len(values), cols, p)
        if not det:
            # det B = q^lo D with deg D <= hi - lo: more roots mean D = 0 mod
            # p, hence D = 0, since p exceeds twice its coefficients.
            misses += 1
            if misses > det_span[1] - det_span[0]:
                raise EliminationError("singular system: det B vanishes")
            x0, values = x0 + len(values) + 1, []
            continue
        values.append([det] + [v for row in adj for v in row])
    polys, unshift = [], {}
    for k, span in enumerate(spans):
        if span is None:
            polys.append((0, ()))
            continue
        lo, hi = span
        if lo not in unshift:
            unshift[lo] = [pow(x0 + i, -lo, p) for i in range(count)]
        vals = [values[i][k] * unshift[lo][i] % p for i in range(hi - lo + 1)]
        polys.append(_lift(lo, _interpolate(x0, vals, p), p))
    det = polys[0]
    combos = []
    for w, col in enumerate(cols):
        adjugate = polys[1 + w * n: 1 + (w + 1) * n]
        _certify(terms, top, adjugate, det, col)
        numer = [_trim(lo, _dense_mul(cs, s)) if cs else (0, ())
                 for (lo, cs), s in zip(adjugate, system.scales)]
        combos.append(ExactCombination(det, numer))
    return combos


def express_pm(m, a, b, prec):
    """The theta combination equal to P_m(a,b) to O(q^prec), residual-checked
    internally.  a and b must be exact."""
    if prec < 1:
        raise PrecisionError("express_pm needs precision >= 1")
    system = build_system(m, a, b)
    direct = pmsum(m, a, b, prec)
    [exact] = gauss_solve(system, want=[0])
    coeffs = {"a": [], "b": []}
    for r, (kind, j) in enumerate(system.rhs_labels):
        # Coefficient r multiplies theta(v/q^j), which dips theta_dip below q^0.
        d = ord_of(_val_shift(system.a if kind == "a" else system.b, -j))
        coeffs[kind].append(exact.expand(r, prec + (0 if d is None else theta_dip(d))))
    combo = ThetaCombination(m, coeffs["a"], coeffs["b"])
    resid = se.sub(combo.evaluate(a, b, prec), direct)
    if not resid.is_zero:
        raise EliminationError(
            "postcondition failed: residual has q^%d coefficient %s"
            % (resid.order(), resid.coeff(resid.order()))
        )
    if resid.prec < prec:
        raise EliminationError(
            "postcondition failed: residual certified only to O(q^%d) < O(q^%d)"
            % (resid.prec, prec)
        )
    combo.checked_prec = resid.prec
    return combo
