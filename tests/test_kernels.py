"""Differential property tests for the sieve kernels.

Every kernel (the smoothness mask, the totient, Moebius and tau/omega
kernels, and the spf/lpf columns of ``sieve_range``) is checked over random
windows against the factoring oracles in conftest, which share no code
with the sieve.  ``sieve_range`` is built from the same stride core as the
kernels, so the comparisons with it only check that the two agree.  The
sparse totient ``_phi_at`` is checked against the oracle and the window
totient.  psi, T and V are checked not to depend on how the range is split
into segments, with small y, where a segment takes phi(n - a) from
``_phi_at``, next to large y, where it takes the window.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import psi, sieve_range, t_exact, v_exact
from smoothlab.sieve import _mu_segment, _phi_at, _phi_segment, _smooth_mask, tau_omega_range

from conftest import (
    oracle_is_smooth, oracle_lpf, oracle_mu, oracle_omega, oracle_phi, oracle_spf, oracle_tau,
    stream_segment,
)

PRIMES = [2, 3, 5, 7, 11, 13, 97, 541, 997]

#: Smoothness bounds at the edges the kernels' prime bound depends on,
#: below, at and above each prime of the wheel (2, 3, 5, 7).
FIXED_Y = st.sampled_from(
    [1, 1.5, 2, 3, 4, 5, 6.5, 7, 7.5, 11, math.inf]
    + [float(p) for p in PRIMES]
    + [p + d for p in PRIMES for d in (-0.5, 0.5)]
)

#: Period of the pattern that gives the multiples of 2^4, 3^2, 5 and 7.
WHEEL_PERIOD = 5040

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def windows(draw):
    """Up to 201 entries anywhere below 10^6, from the first integers or across
    a multiple of the wheel period; or more than a period, so the wheel
    pattern is tiled."""
    layout = draw(st.sampled_from(["anywhere", "first", "straddle", "tiled"]))
    if layout == "tiled":
        lo = draw(st.integers(1, 3 * WHEEL_PERIOD))
        return lo, lo + draw(st.integers(WHEEL_PERIOD, 2 * WHEEL_PERIOD + 200))
    size = draw(st.integers(0, 200))
    if layout == "anywhere":
        lo = draw(st.integers(1, 10**6))
    elif layout == "first":
        lo = draw(st.integers(1, 20))
    else:
        lo = draw(st.integers(1, 200)) * WHEEL_PERIOD - draw(st.integers(0, size))
    return lo, lo + size


@st.composite
def window_and_y(draw):
    lo, hi = draw(windows())
    root = math.isqrt(hi)
    near_root = st.sampled_from([root - 1, root - 0.5, root, root + 0.5, root + 1])
    at_or_above_hi = st.sampled_from([hi, hi + 0.5, 2 * hi])
    y = draw(st.one_of(FIXED_Y, near_root.filter(lambda v: v >= 1), at_or_above_hi))
    return lo, hi, y


@SETTINGS
@given(window_and_y())
def test_smooth_mask_matches_reference_and_oracle(case):
    lo, hi, y = case
    mask = _smooth_mask(lo, hi, y)
    assert np.array_equal(mask, sieve_range(lo, hi).lpf <= y)
    assert mask.tolist() == [oracle_is_smooth(n, y) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_phi_segment_matches_reference_and_oracle(window):
    lo, hi = window
    phi = _phi_segment(lo, hi)
    assert np.array_equal(phi, sieve_range(lo, hi).phi)
    assert phi.tolist() == [oracle_phi(n) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_mu_segment_matches_reference_and_oracle(window):
    lo, hi = window
    mu = _mu_segment(lo, hi)
    assert np.array_equal(mu, sieve_range(lo, hi).mu)
    assert mu.tolist() == [oracle_mu(n) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_tau_omega_range_matches_oracle(window):
    lo, hi = window
    tau, omega = tau_omega_range(lo, hi)
    assert tau.tolist() == [oracle_tau(n) for n in range(lo, hi + 1)]
    assert omega.tolist() == [oracle_omega(n) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_sieve_range_prime_factors_match_oracle(window):
    lo, hi = window
    table = sieve_range(lo, hi)
    assert table.spf.tolist() == [oracle_spf(n) for n in range(lo, hi + 1)]
    assert table.lpf.tolist() == [oracle_lpf(n) for n in range(lo, hi + 1)]


@st.composite
def value_sets(draw):
    """Values of one window, in any order and with repeats, some around 2^31."""
    lo = draw(st.one_of(st.integers(1, 10**6), st.integers(2**31 - 300, 2**31 + 100)))
    hi = lo + draw(st.integers(0, 200))
    return lo, hi, draw(st.lists(st.integers(lo, hi), min_size=1, max_size=10))


@SETTINGS
@given(value_sets())
def test_phi_at_matches_window_and_oracle(case):
    lo, hi, values = case
    phi = _phi_at(np.array(values))
    assert phi.dtype == np.int64
    assert np.array_equal(phi, _phi_segment(lo, hi)[np.array(values) - lo])
    assert phi.tolist() == [oracle_phi(n) for n in values]


def test_phi_at_at_the_top_of_the_range():
    lo, hi = 2**52 - 60, 2**52
    window = _phi_segment(lo, hi)
    assert window.tolist() == [oracle_phi(n) for n in range(lo, hi + 1)]
    for picks in (np.arange(61), np.arange(60, -1, -7), np.array([60, 0, 60])):
        assert np.array_equal(_phi_at(picks + lo), window[picks])
    assert _phi_at(np.empty(0, dtype=np.int64)).size == 0


@st.composite
def sum_cases(draw):
    x = draw(st.integers(1, 5000))
    segment = draw(st.integers(max(1, x // 64), x + 10))
    a = draw(st.integers(-20, 20).filter(lambda v: v != 0))
    # Small y leaves the smooth n sparse enough for the sparse totient.
    y = draw(st.one_of(st.sampled_from([2, 3, 7]), FIXED_Y))
    return x, y, a, segment


@SETTINGS
@given(sum_cases())
def test_psi_t_v_do_not_depend_on_capacity(case):
    x, y, a, segment = case
    whole = psi(x, y), t_exact(x, y, a).hex(), v_exact(x, y, a).hex()
    with stream_segment(segment):
        split = psi(x, y), t_exact(x, y, a).hex(), v_exact(x, y, a).hex()
    assert split == whole


def test_kernels_on_both_sides_of_the_int32_remainder():
    # hi < 2^31 builds the smooth part in int32, hi >= 2^31 in int64, up to
    # the largest window the sieve accepts.
    windows = ((2**31 - 40, 2**31 - 1), (2**31 - 20, 2**31 + 20), (2**52 - 40, 2**52))
    for lo, hi in windows:
        ns = range(lo, hi + 1)
        lpf = [oracle_lpf(n) for n in ns]
        for y in (7, 1000, 46340.5, math.inf):
            assert _smooth_mask(lo, hi, y).tolist() == [p <= y for p in lpf]
        assert _phi_segment(lo, hi).tolist() == [oracle_phi(n) for n in ns]
        tau, omega = tau_omega_range(lo, hi)
        assert tau.tolist() == [oracle_tau(n) for n in ns]
        assert omega.tolist() == [oracle_omega(n) for n in ns]
