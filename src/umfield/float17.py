"""The text ``"%.17g" % x`` of a float64 array, as %-format fragments and integer arguments.

``cells(x)`` gives, for each value ``x[i]``, a fragment ``f[i]`` and at most two
integer arguments, ``args[i][used[i]]``, such that ``f[i] % tuple(those)`` is
``"%.17g" % x[i]`` byte for byte.  The sign, the lead digit, the decimal point,
a ``0.000`` prefix, the zeros that open the fraction and the exponent are in the
fragment, so most values take one argument, ``%d`` of the rest of their
fraction digits; a value of 10 or more takes its integer part as another.  A
CSV writer can then put a whole block of rows through one ``%``: with CPython
3.11 on a 2-vCPU x86-64 host, ``%d`` of such an int took about 95 ns against
about 600 ns for ``%.17g`` of a float.  The fragments come from a table built per call for the
codes present (sign, exponent, lead digit and count of opening zeros),
through ``np.bincount`` and an object-array gather.

The digits, after Adams, "Ryu revisited: printf floating point conversion"
(OOPSLA 2019); the reference is CPython's correctly rounded ``dtoa``, after
Gay, "Correctly rounded binary-decimal and decimal-binary conversions" (1990).
Write a normal double as |x| = m 2^e with m a 53-bit integer, and let
E = floor(log10 |x|).  The 17 significant digits of ``%.17g`` are the integer
D = |x| 10^k rounded to nearest, ties to even, with k = 16 - E, so that
10^16 <= D < 10^17.  For 1 <= k <= 27, 5^k is below 2^63, so m 5^k < 2^116
is formed exactly in two 64-bit words from 32-bit limbs, and
|x| 10^k = m 5^k / 2^s with s = -(e + k).  For 1 <= s <= 63 the shift gives
floor(D), and the remainder below 2^s decides the rounding: up above
2^(s-1), to even at it.  Every step is an exact integer operation, so ties
are exact too.  E comes from ``np.log10``, which can be off by one next to a
power of ten; floor(D) then falls outside [10^16, 10^17), and those values
are computed again with E moved by one.  A D that rounds up to 10^17 would
need a double less than 5e-18 (relative) below a power of ten; from 1e-11 to
1e16 the closest double below a power of ten is 4.5e-17 below it (at 1e-7),
so none occurs, and such a value would take the fallback.  The fallback is
every other value: zero, subnormal, infinite or nan, or one whose k or s
falls outside those ranges (|x| < 1e-11, |x| >= 1e16 and the values of
[2^51, 1e16)).  Its fragment is ``"%.17g" % x`` itself, so its text is
CPython's own.

The layout is that of ``%.17g`` in that range: exponent form ``d.ddde-05``
when E < -4, fixed form otherwise, with trailing zeros and a bare point
removed.  The trailing zeros are stripped from the 16 digits after the lead
digit (from the fraction of a value of 10 or more), one decimal place at a
time, on the values whose last digit is still 0.
"""

from __future__ import annotations

import numpy as np

# the largest k with 5^k < 2^63, so that m 5^k (m < 2^53) fits two 64-bit words
_K_MAX = max(k for k in range(64) if 5 ** k < 2 ** 63)
_E_MIN, _E_MAX = 16 - _K_MAX, 16 - 1
_POW5_LO = np.array([5 ** k % 2 ** 32 for k in range(_K_MAX + 1)], dtype=np.uint64)
_POW5_HI = np.array([5 ** k >> 32 for k in range(_K_MAX + 1)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(18)], dtype=np.uint64)
_U = np.uint64  # numpy keeps uint64 only against uint64 operands


# the fraction for each count of its leading zeros plus one (0: no fraction), after the point
# or straight after the lead digit
_FRACTIONS = {point: ("",) + tuple(f"{point}{'0' * z}%d" for z in range(16)) for point in (".", "")}


def _head(negative: int, E: int, digit: int) -> tuple[str, tuple[str, ...], str]:
    """Fragment parts for a sign, exponent and lead digit (the integer part, where E >= 1): the
    text before the fraction, the fractions, and the text after them."""
    sign = "-" if negative else ""
    if -4 <= E < 0:  # the fraction digits follow the lead digit
        return f"{sign}0.{'0' * (-E - 1)}{digit}", _FRACTIONS[""], ""
    exponent = f"e-{-E:02d}" if E < -4 else ""
    return f"{sign}%d" if E >= 1 else f"{sign}{digit}", _FRACTIONS["."], exponent


# one head per sign, exponent E and lead digit (0 where E >= 1), in code order
_HEADS = [_head(negative, E, digit)
          for negative in (0, 1) for E in range(_E_MIN, _E_MAX + 1) for digit in range(10)]
_N_CODES = 17 * len(_HEADS)


def _scaled(m, e, E):
    """floor(m 2^e 10^(16-E)), whether the part dropped rounds it up, and where both are exact.

    Elsewhere (k = 16 - E or s = -(e + k) out of range) the first two mean nothing.  The
    arithmetic runs in place where it can, to allocate fewer temporaries.
    """
    k = 16 - E
    s = E - 16
    s -= e
    exact = ((k - 1).view(_U) < _U(_K_MAX)) & ((s - 1).view(_U) < _U(63))
    s = np.clip(s, 1, 63, out=s).view(_U)
    # with 32-bit limbs m = m1 2^32 + m0 and 5^k = p1 2^32 + p0, the words of m 5^k are
    # hi = m1 p1 + (mid >> 32) + carry and lo = m0 p0 + (mid << 32) mod 2^64, mid = m0 p1 + m1 p0
    p1 = _POW5_HI.take(k, mode="clip")
    p0 = _POW5_LO.take(k, mode="clip")
    m1 = m >> _U(32)
    m0 = m & _U(2 ** 32 - 1)
    mid = m0 * p1
    mid += m1 * p0  # below 2^63 + 2^53
    hi = p1
    hi *= m1
    hi += mid >> _U(32)
    low = p0
    low *= m0
    lo = mid
    lo <<= _U(32)
    lo += low
    hi += lo < low  # the carry out of the low word
    left = _U(64) - s
    hi <<= left
    hi |= lo >> s
    # the remainder lo mod 2^s, shifted to the top of a word: above 2^63 rounds up, at it to even
    lo <<= left
    lo |= hi & _U(1)
    return hi, lo > _U(2 ** 63), exact


def cells(x, before="", after=""):
    """Fragments (object array), arguments (int64, n x 2) and which arguments are used (bool,
    n x 2) of the float64 values x, with the template text ``before`` and ``after`` (a "%" in it
    doubled) around each fragment: ``fragments[i] % tuple(args[i][used[i]])`` is the text
    ``"%.17g" % x[i]`` between them.  A fallback fragment is that text itself, with no argument.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = len(x)
    args = np.empty((n, 2), dtype=_U)
    used = np.empty((n, 2), dtype=bool)
    bits = x.view(_U)
    e = bits >> _U(52)
    e &= _U(0x7FF)
    fast = (e - _U(1)) < _U(0x7FE)  # normal
    m = bits & _U(2 ** 52 - 1)
    m |= _U(2 ** 52)
    e = e.view(np.int64)
    e -= 1075
    E = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(E, out=E)
    np.floor(E, out=E)
    E[~fast] = 0.0
    E = E.astype(np.int64)
    q, up, exact = _scaled(m, e, E)
    fast &= exact
    off = fast & ((q - _POW10[16]) >= _POW10[17] - _POW10[16])  # log10 was off by one
    if off.any():
        at = np.flatnonzero(off)
        E[at] += np.where(q[at] < _POW10[16], -1, 1)
        q[at], up[at], fast[at] = _scaled(m[at], e[at], E[at])
    D = q
    D += up
    fast &= (D - _POW10[16]) < _POW10[17] - _POW10[16]
    E[~fast] = 0
    unit = _POW10.take(16 - np.maximum(E, 0))  # 10^digits after the lead digit or integer part
    lead = D // unit
    fraction = args[:, 1]
    np.subtract(D, lead * unit, out=fraction)
    # the zeros that open the fraction, plus one; 0 for no fraction
    zeros = (fraction > 0).view(np.int8).astype(np.int64)
    at = np.flatnonzero((fraction * _U(10) < unit) & (fraction > 0))
    while at.size:
        zeros[at] += 1
        unit[at] //= _U(10)
        at = at[fraction[at] * _U(10) < unit[at]]
    at = np.flatnonzero(((fraction // _U(10)) * _U(10) == fraction) & (fraction > 0))
    while at.size:  # strip the trailing zeros
        fraction[at] //= _U(10)
        at = at[(fraction[at] // _U(10)) * _U(10) == fraction[at]]
    integral = E >= 1  # the integer part is an argument
    args[:, 0] = np.where(integral, lead, fraction)
    has_fraction = zeros > 0
    np.logical_or(integral, has_fraction, out=used[:, 0])
    np.logical_and(integral, has_fraction, out=used[:, 1])
    head = ((bits >> _U(63)).view(np.int64) * (_E_MAX - _E_MIN + 1) + (E - _E_MIN)) * 10
    head += np.where(integral, 0, lead.view(np.int64))
    code = np.where(fast, head * 17 + zeros, _N_CODES)
    table = np.empty(_N_CODES + 1, dtype=object)
    present = np.flatnonzero(np.bincount(code, minlength=_N_CODES + 1)[:_N_CODES])
    table[present] = [before + _fragment(c) + after for c in present.tolist()]
    fragments = table[code]
    slow = np.flatnonzero(~fast)
    if slow.size:
        fragments[slow] = [before + "%.17g" % v + after for v in x[slow].tolist()]
        used[slow] = False
    return fragments, args.view(np.int64), used


def _fragment(code: int) -> str:
    h, zeros = divmod(code, 17)
    text, fractions, exponent = _HEADS[h]
    return text + fractions[zeros] + exponent
