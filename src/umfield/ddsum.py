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

``dd_path_sums`` takes the sums along every root path of a tree, each vertex
v with the path v_0 (a root), ..., v_d = v, as a cascaded sum (Ogita, Rump
& Oishi's Sum2, with its error terms summed once more).  The tree is given
by each element's predecessor and by a prefix pass that adds each
predecessor's value into its successor's: ``BallTree.path_sums``, or
``np.cumsum`` along one array, a chain.  Along one path:
- s = the prefix sums of x, and e_i the exact TwoSum error of its step
  s_i = fl(s_{i-1} + x_i) (e_0 = 0), so x_0 + ... + x_i = s_i + E'_i with
  E'_i the exact sum of e_0 ... e_i;
- E = the prefix sums of e, and r_i the exact TwoSum error of its step, so
  E'_i = E_i + (r_0 + ... + r_i) exactly;
- err = the prefix sums of |r|, and (hi, lo) = TwoSum(s, E).
So X_i - (hi_i + lo_i) = r_0 + ... + r_i exactly, err_i is a float sum of
the |r_j|, so |X_i - (hi_i + lo_i)| <= 2 err_i as above, and
fl(hi + lo) = hi: the invariant ``dd_add`` keeps, from which ``screen``
decides.  A prefix pass takes each step as one rounding
fl(a[pred] + a[i]), the TwoSum's sum, so the step errors of all elements
are one whole-array TwoSum against the gathered predecessors' sums, and the
argument holds on every root path as along a chain.  An overflow in a step
makes that prefix's hi or err infinite or nan, and every later prefix's on
the path too, and ``screen`` keeps none.

The additions write into arrays the caller owns: ``dd_add`` overwrites its
first three arguments and takes four scratch arrays of their shape, and
``dd_path_sums`` takes two, so a loop of additions allocates nothing.
"""

from __future__ import annotations

import numpy as np

_KEEP_BELOW = 2.0 ** 1022


def two_sum(a, b, s, e, z):
    """Knuth's TwoSum into arrays: s = fl(a + b) and e = a + b - s exactly, elementwise.

    s, e and the scratch z are distinct and none is a; e may be b.
    """
    np.add(a, b, out=s)
    _two_sum_error(a, b, s, e, z)


def _two_sum_error(a, b, s, e, z):
    """e = a + b - s exactly, for s = fl(a + b) given: the error half of TwoSum."""
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


def _step_errors(s, x, pred, e, a, z):
    """e[i] = s[pred[i]] + x[i] - s[i] exactly, for s the prefix sums of x: each step's error.

    The scratch cell of s is set to 0, the value before a first element, so
    its step is exact.  e may be x; a and z are scratch.
    """
    n = len(pred)
    s[n] = 0.0
    np.take(s, pred, out=a[:n], mode="wrap")  # wrap: -1 is the scratch cell, and out is unbuffered
    _two_sum_error(a[:n], x[:n], s[:n], e[:n], z[:n])


def dd_path_sums(x, pred, prefix, hi, lo, err, work):
    """(hi[i], lo[i]) and its bound err[i] for the sum of x along the path to i, as a cascaded
    prefix sum (module docstring).

    Every array has a last scratch cell.  pred[i] is the element before i,
    -1 for a first one, and ``prefix(a)`` sets a[i] = a[pred[i]] + a[i] in
    place, each element after its predecessor (``BallTree.path_sums``).  hi,
    lo and err are overwritten; x may be hi, and work is two scratch arrays
    of its shape.
    """
    s, e = work
    np.copyto(s, x)
    prefix(s)
    _step_errors(s, x, pred, e, lo, err)
    np.copyto(lo, e)
    prefix(lo)  # E
    _step_errors(lo, e, pred, e, hi, err)  # r
    np.abs(e, out=err)
    prefix(err)
    two_sum(s, lo, hi, lo, e)


def screen(hi, lo, err):
    """Where hi is proved to be fsum's value, the exact sum rounded once (module docstring)."""
    a = np.abs(hi)
    h = 0.5 * (a - np.nextafter(a, 0.0))
    with np.errstate(over="ignore"):  # an infinite bound decides nothing
        return (a < _KEEP_BELOW) & ((err == 0.0) | (np.abs(lo) + 2.0 * err < h))
