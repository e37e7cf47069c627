"""Double-double sums that bound what they drop, and the screen that proves one correctly rounded.

The measures (``tree``) and the covariance kernel (``field``) are sums whose
reference value is ``math.fsum`` of the same float terms: the exact sum X
rounded once to nearest, ties to even.  Both take them whole-array as
double-double sums (Dekker, Numer. Math. 18, 1971; Ogita, Rump & Oishi,
SISC 26, 2005) and keep a value only where this module's ``screen`` proves
it equal to fsum; the rest, rare, go to fsum itself.

``dd_add`` adds two (hi, lo) pairs with error-free TwoSums and drops two
residuals per addition; it adds their magnitudes into a bound e, so that
X - (hi + lo) is a sum of dropped residuals of total magnitude at most the
exact sum behind e.  e is itself a float sum of non-negative numbers, each
addition rounding down by at most a relative 2^-53, so for fewer than 2^52
additions the exact sum is below 2e and |X - (hi + lo)| <= 2e.  After every
``dd_add``, fl(hi + lo) = hi.  ``screen`` then keeps hi as fl(X) when
- e = 0: no residual was dropped, so X = hi + lo and hi = fl(X), ties
  included;
- |lo| + 2e < h, with h half the gap from |hi| to the next float toward
  zero (the smaller of its two gaps): then |X - hi| < h, and no other float
  is as close to X.  h is a power of two (or 0, which decides nothing), so
  the float comparison implies the exact one.
It also asks |hi| < 2^1022, so that a kept value is far from overflow; an
infinite or nan hi is never kept.  TwoSum is exact with gradual underflow,
so subnormal terms need no care; an overflow inside a sum leaves hi
infinite or nan.

The additions write into arrays the caller owns: ``dd_add`` overwrites its
first three arguments and takes four scratch arrays of their shape, so a
loop of additions allocates nothing.
"""

from __future__ import annotations

import numpy as np

_KEEP_BELOW = 2.0 ** 1022


def two_sum(a, b, s, e, z):
    """Knuth's TwoSum into arrays: s = fl(a + b) and e = a + b - s exactly, elementwise.

    s, e and the scratch z are distinct and none is a; e may be b.
    """
    np.add(a, b, out=s)
    np.subtract(s, a, out=z)  # the part of b that went into s
    np.subtract(b, z, out=e)
    np.subtract(s, z, out=z)
    np.subtract(a, z, out=z)
    np.add(z, e, out=e)


def dd_add(hi, lo, err, b_hi, b_lo, b_err, work):
    """(hi, lo) += (b_hi, b_lo) as a double-double, and err += b_err + what the sum drops.

    The two high parts and the two low parts are added by TwoSum, the low
    error folded into the high one by a third TwoSum, and the result
    renormalised by a fourth, so fl(hi + lo) = hi.  The errors of the second
    and third are the only parts dropped; their magnitudes go into err, which
    stays exactly 0 as long as every addition was exact.  hi, lo and err are
    overwritten; b_hi, b_lo and b_err (arrays or scalars) are only read, and
    work is four scratch arrays of the shape of hi.
    """
    s, t, z, r = work
    two_sum(hi, b_hi, s, t, z)
    two_sum(lo, b_lo, hi, r, z)  # hi holds w = fl(lo + b_lo), r its error
    np.add(err, b_err, out=err)
    np.abs(r, out=r)
    np.add(err, r, out=err)
    two_sum(t, hi, lo, r, z)  # lo holds fl(t + w), r its error
    np.abs(r, out=r)
    np.add(err, r, out=err)
    two_sum(s, lo, hi, lo, z)


def screen(hi, lo, err):
    """Where hi is proved to be fsum's value, the exact sum rounded once (module docstring)."""
    a = np.abs(hi)
    h = 0.5 * (a - np.nextafter(a, 0.0))
    with np.errstate(over="ignore"):  # an infinite bound decides nothing
        return (a < _KEEP_BELOW) & ((err == 0.0) | (np.abs(lo) + 2.0 * err < h))
