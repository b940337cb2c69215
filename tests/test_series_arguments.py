"""Kernel and sum outputs on series arguments, pinned by sha256.

Series values of order -2..1, with small and large denominators (2^40),
leading coefficient 1 or not, short precisions and zero to precision, go
through theta, (x;q)_inf, finite Pochhammer symbols, bhs and the named
sums.  The repr of every result, or the type and message of its error,
is hashed, so any change to a term, a precision or an error shows.
"""

import hashlib
import itertools
from fractions import Fraction

from qtheta import kernels, series as se, sums
from qtheta.errors import QThetaError

from helpers import qmon


def _ser(lo, coefs, prec):
    return se.add_all([se.monomial(Fraction(c), lo + i, prec) for i, c in enumerate(coefs) if c]
                      + [se.zero(prec)])


_BIG = Fraction(1, 2 ** 40)
# The orders run -2..1; each order has a leading coefficient 1 and a
# denominator 2^40, orders 0 and -1 a short precision, and two are zero
# to precision.
_VALUES = [
    _ser(0, [1, 0, 3], 12),
    _ser(0, [Fraction(2, 3), 0, 1], 12),
    _ser(0, [Fraction(3, 5), _BIG, 0, -_BIG], 10),
    _ser(0, [Fraction(-7, 4), 2], 2),
    _ser(-1, [1, 0, -2, 5], 9),
    _ser(-1, [_BIG, 1, Fraction(1, 3)], 8),
    _ser(-1, [Fraction(5, 2)], 1),
    _ser(-2, [1, 1], 7),
    _ser(-2, [Fraction(3, 2 ** 40), 0, Fraction(-1, 7)], 9),
    _ser(1, [Fraction(-2, 3), 1], 11),
    _ser(1, [1, _BIG], 6),
    se.zero(3),
    se.zero(0),
]


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except QThetaError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _calls():
    """(name, function, args) of the battery, in a fixed order."""
    vals = _VALUES
    pairs = list(itertools.product(vals + [qmon(Fraction(3, 2)), qmon(-2, 1)], vals))
    for v, prec in itertools.product(vals, (1, 5, 12)):
        yield "theta", kernels.theta_partial, (v, prec)
        yield "pochinf", kernels.qpoch_infinite, (v, prec)
        yield "theta_full", kernels.theta_full, (v, prec)
    for v, n, step in itertools.product(vals, (1, 3, 5), (1, 2)):
        yield "poch", kernels.qpoch_finite, (v, n, 6, step)
    zs = [qmon(1, 1)] + vals[:4] + vals[9:]
    for v, z in itertools.product(vals, zs):
        # 2phi1 needs ord z > 0, so a series z is lifted by q^3.
        yield "bhs21", kernels.bhs, ([v, qmon(Fraction(1, 2))], [qmon(3, 1)], kernels._val_shift(z, 3), 6)
        yield "bhs10", kernels.bhs, ([qmon(-2, 1)], [v], z, 5)
    for v, n in itertools.product(vals, (2, 4)):
        yield "phi_term", kernels.bhs, ([qmon(1, -n), v], [qmon(5, 1)], qmon(1, 1), 6)
    for a, b in pairs[::3]:
        yield "pmsum2", sums.pmsum, (2, a, b, 5)
    for a, b in pairs[1::7]:
        yield "pmsum3", sums.pmsum, (3, a, b, 4)
        yield "ssum", sums.ssum, (a, b, 4)
    for a, b in pairs[::4]:
        yield "vsum", sums.vsum, (2, 3, a, b, 6)
        yield "omega", sums.omega, (a, b, 5)
    for v, m, k in itertools.product(vals, (2, 3), (0, 1)):
        yield "lam", sums.lam, (m, k, v, 4)


def test_series_arguments_pinned():
    h = hashlib.sha256()
    n = 0
    for name, f, args in _calls():
        h.update(("%s %s\n" % (name, _outcome(f, *args))).encode())
        n += 1
    assert n == SERIES_CALLS
    assert h.hexdigest() == SERIES_SHA256


SERIES_CALLS = 726
SERIES_SHA256 = "a10452643c30dcc70292a6eaeee08f980833a3eba99793712884ebb86139f7c9"
