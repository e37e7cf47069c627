import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umfield import float17


def _texts(x):
    """Each value's text through its fragment and arguments, all in one %."""
    fragments, args, used = float17.cells(x)
    return ("\n".join(fragments.tolist()) % tuple(args[used].tolist())).split("\n")


def _assert_matches_percent_g(x):
    x = np.asarray(x, dtype=np.float64)
    want = ["%.17g" % v for v in x.tolist()]
    got = _texts(x)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        pytest.fail(f"{len(bad)} of {len(x)} values differ, first (value, got, want): {bad[:5]}")


def _fast(x):
    """Which values take the integer path: their fragment uses an argument."""
    return float17.cells(np.asarray(x, dtype=np.float64))[2].any(axis=1)


def _ulps(x, n):
    """x and its n neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_random_bit_patterns():
    x = np.random.default_rng(1).integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(np.float64)
    _assert_matches_percent_g(x)


def test_log_uniform_magnitudes():
    rng = np.random.default_rng(2)
    n = 400_000
    x = 10.0 ** rng.uniform(-13.0, 17.0, n) * rng.choice([-1.0, 1.0], n)
    _assert_matches_percent_g(x)


def test_log_uniform_in_the_exact_range_takes_the_integer_path():
    rng = np.random.default_rng(3)
    n = 200_000
    x = 10.0 ** rng.uniform(-11.0, 15.0, n) * rng.choice([-1.0, 1.0], n)
    _assert_matches_percent_g(x)
    assert _fast(x).mean() > 0.99


def test_powers_of_ten_and_their_neighbours():
    x = []
    for p in range(-14, 19):
        for t in (10.0 ** p, float(f"1e{p}")):
            x += _ulps(t, 4)
            x += [2 * t, 5 * t, 9.999999999999999 * t, 9.9999999999999999 * t]
    x += [-v for v in x]
    _assert_matches_percent_g(x)


def test_ties_round_to_even():
    # m 2^-k is exactly m 5^k 10^-k: with 18 significant digits ending in 5, %.17g meets a tie
    ties = []
    for k in range(1, 64):
        p = 5 ** k
        lo = -(-10 ** 17 // p) | 1  # the first odd m with m 5^k of 18 digits
        ties += [math.ldexp(m, -k) for m in range(lo, min(lo + 200, 10 ** 18 // p), 2)
                 if m < 2 ** 53 and len(str(m * p)) == 18]
    assert len(ties) > 1000
    _assert_matches_percent_g(ties + [-t for t in ties])
    assert _fast([t for t in ties if 1e-11 <= t < 2.0 ** 50]).all()
    halves = [n + 0.5 for n in range(-3000, 3000)] + [2.0 ** -k for k in range(1, 80)]
    halves += [n + 0.5 for n in range(10 ** 15, 10 ** 15 + 1000)]
    _assert_matches_percent_g(halves)


def test_limits_of_the_integer_path():
    # k = 27 starts at 1e-11 (below it, and at the double nearest 1e-11, which is smaller,
    # k = 28 takes the fallback); k = 1 holds up to 1e16; the shift s = -(e + k) reaches 1 on
    # [2^50, 2^51) at k = 1 and 62 just above 1e-11, and falls to 0 (the fallback) from 2^51 up
    k27 = _ulps(1e-11, 50) + [1.2e-11, 9.99999999999e-11]
    s1 = [2.0 ** 50 + 0.25, 2.0 ** 51 - 0.25, 1.5e15 + 0.5]
    beyond = [2.0 ** 51 + 1, 2.0 ** 53 - 1, 2.0 ** 53 + 2, 9.999999999999998e15, 1e16, 1e16 + 2,
              9.999999999999e-12, 5e-12, 1e17, 1.2345678901234567e20]
    _assert_matches_percent_g(k27 + s1 + beyond)
    assert _fast([v for v in k27 if v > 1e-11]).all()
    assert _fast(s1).all()
    assert not _fast(beyond).any()


def test_layout_switches():
    x = []
    for t in (1e-5, 1e-4, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e15, 1e16, 1e17):
        x += _ulps(t, 30)
        x += [t * f for f in (1.5, 0.5, 0.25, 1.0000000000000002, 0.9999999999999999)]
    x += [k * 1e-5 for k in range(1, 3000)] + [k * 0.1 for k in range(1, 3000)]
    x += list(map(float, range(1, 5000))) + [2.0 ** k for k in range(-60, 60)]
    x += [123456789.5, 1234567890123.25, 999999999999999.9, 0.00012, 5e-05, 0.5, 1.0, 700.125]
    x += [-v for v in x]
    _assert_matches_percent_g(x)


def test_zeros_subnormals_and_non_finite():
    x = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, -1e300, 1e-300]
    _assert_matches_percent_g(x)
    assert _texts([0.0, -0.0, math.nan]) == ["0", "-0", "nan"]


def test_empty_and_fraction_free_values():
    assert _texts(np.array([])) == [""]  # one empty string for the empty join
    _assert_matches_percent_g([1.0, 0.5, 5e-05, 10.0, 120.0, 3e-07, -0.25, 1e15])
    # a lead digit with nothing after it is all fragment: no argument
    fragments, args, used = float17.cells(np.array([1.0, 0.5, 9.0, -0.5]))
    assert fragments.tolist() == ["1", "0.5", "9", "-0.5"] and not used.any()


def test_before_and_after_wrap_every_fragment():
    x = np.array([1.5, -2.25e-7, math.inf, 123.0625, 0.0])
    fragments, args, used = float17.cells(x, ",", "\n%%")
    text = "".join(fragments.tolist()) % tuple(args[used].tolist())
    assert text == "".join(f",{v:.17g}\n%" for v in x.tolist())


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    _assert_matches_percent_g(values)
