"""Differential property tests for the sieve kernels.

Every kernel (the smoothness mask, the totient, Moebius and tau/omega
kernels, and the columns of ``sieve_range``) is checked over random
windows against the factoring oracles in conftest, which share no code
with the sieve.  ``sieve_range`` is built from the same stride core as the
kernels, so no kernel test compares with it.  The factorization
``_factor_at`` is checked by its distinct primes against the oracle, and
the sparse totient ``_phi_at`` on top of it against the oracle; a count of
the prime lists they make shows that the Miller-Rabin test and
Pollard-Brent split settle every value after the primes up to 2^18, and
that a generated pass makes its trial primes once.  The shifted pass
``_smooth_phi_shifted`` is checked on each of its routes: each sieved
segment (one union strip, or the mask and a strip per band of shifts),
its windows joined, against the mask and the oracle, the windows' shape
and strips at a small read block, every strip of a pass taken from the
pass's own buffers (across 2^31 too), the route chosen from the arguments
alone, and T and V through both routes against the mask route, which
takes phi from the oracle.  psi, T and V are checked not to depend on how
the range is split into segments, with small y, where the pass generates
its smooth n and takes phi(n - a) from ``_phi_at``, next to large y,
where it strips the window.
"""

import ast
import functools
import inspect
import itertools
import math
import re
import signal
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothlab
from smoothlab import (
    aux_averages, census, psi, shifted, sieve, sieve_range, t_exact, t_via_mobius, v_exact,
    v_via_abel,
)
from smoothlab.sieve import (
    _factor_at, _mu_segment, _PassContext, _phi_at, _sieve_phi_segment, _smooth_mask, _tau_omega,
)

from conftest import (
    oracle_factorize, oracle_is_smooth, oracle_lpf, oracle_mu, oracle_omega, oracle_phi,
    oracle_smooth_list, oracle_spf, oracle_t_float, oracle_tau, oracle_v, forced_route,
    read_block, stream_segment,
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
def test_smooth_mask_matches_oracle(case):
    lo, hi, y = case
    mask = _smooth_mask(lo, hi, y, _PassContext(lo, hi))
    assert mask.tolist() == [oracle_is_smooth(n, y) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_sieve_range_phi_matches_oracle(window):
    lo, hi = window
    assert sieve_range(lo, hi).phi.tolist() == [oracle_phi(n) for n in range(lo, hi + 1)]


@SETTINGS
@given(windows())
def test_mu_segment_matches_oracle(window):
    # Every window fits in one read block; blocks of 7 entries read it in
    # pieces, each finding its n with a prime above sqrt(hi) on its own.
    lo, hi = window
    primes = sieve.primes_upto(math.isqrt(hi))
    want = [oracle_mu(n) for n in range(lo, hi + 1)]
    for block in (nullcontext(), read_block(7)):
        with block:
            assert _mu_segment(lo, hi, primes).tolist() == want


@pytest.mark.parametrize(
    "lo, hi, strides",
    [(1, 2**18, 194), (10**6, 10**6 + 2**18 - 1, 334), (10**9, 10**9 + 2**18 - 1, 3565)],
)
def test_a_mu_strip_strides_no_power_past_p_squared(lo, hi, strides):
    # A mu row is 0 wherever p^2 divides n, so each p^k stride with k >= 3
    # multiplied 0 into zeros: a mu strip took 247 strides on (1, 2^18),
    # 400 at 1e6 and 3,629 at 1e9.  It takes the p and p^2 with a multiple
    # in the window, or for a power of the wheel in its first period of 5040.
    primes = sieve.primes_upto(math.isqrt(hi))
    taken, factor = [], sieve._stride_factor

    def counted(p, k, kind, pair):
        taken.append((p, k))
        return factor(p, k, kind, pair)

    with patch.object(sieve, "_stride_factor", counted):
        _mu_segment(lo, hi, primes)
    wheel = {2: 4, 3: 2, 5: 1, 7: 1}
    want = [
        (p, k)
        for p in primes.tolist()
        for k in (1, 2)
        for top in [min(hi, lo + WHEEL_PERIOD - 1) if k <= wheel.get(p, 0) else hi]
        if (lo + p**k - 1) // p**k * p**k <= top
    ]
    assert sorted(taken) == sorted(want)
    assert len(taken) == strides


@SETTINGS
@given(windows())
def test_tau_omega_matches_oracle(window):
    lo, hi = window
    primes = sieve.primes_upto(math.isqrt(hi))
    want = [oracle_tau(n) for n in range(lo, hi + 1)], [oracle_omega(n) for n in range(lo, hi + 1)]
    for block in (nullcontext(), read_block(7)):
        with block:
            tau, omega = _tau_omega(lo, hi, primes)
        assert (tau.tolist(), omega.tolist()) == want


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
def test_phi_at_matches_oracle(case):
    _lo, _hi, values = case
    phi = _phi_at(np.array(values))
    assert phi.dtype == np.int64
    assert phi.tolist() == [oracle_phi(n) for n in values]


def test_phi_at_at_the_top_of_the_range():
    lo, hi = 2**52 - 60, 2**52
    window = np.array([oracle_phi(n) for n in range(lo, hi + 1)])
    for picks in (np.arange(61), np.arange(60, -1, -7), np.array([60, 0, 60])):
        assert np.array_equal(_phi_at(picks + lo), window[picks])
    assert _phi_at(np.empty(0, dtype=np.int64)).size == 0


@pytest.fixture
def prime_windows(monkeypatch):
    """The last prime of every prime list ``_phi_at`` makes."""
    make = sieve.primes_upto
    drawn = []

    def counted(n):
        primes = make(n)
        drawn.append(int(primes[-1]))
        return primes

    monkeypatch.setattr(sieve, "primes_upto", counted)
    return drawn


def test_phi_at_settles_a_prime_after_the_first_window(prime_windows):
    prime = 2**52 - 47
    assert _phi_at(np.array([prime, 2 * 3 * (2**31 - 1)])).tolist() == [
        prime - 1, 2 * (2**31 - 2),
    ]
    assert len(prime_windows) == 1


def test_phi_at_splits_a_product_of_two_large_primes(prime_windows):
    # Miller-Rabin finds the remainder composite after the primes up to 2^18,
    # and Pollard-Brent splits it: no primes beyond the first list are made.
    small, large = 2**26 - 27, 2**26 - 5
    values = np.array([small * large, 2**52 - 47])
    tracemalloc.start()
    try:
        phi = _phi_at(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.tolist() == [oracle_phi(int(n)) for n in values]
    assert len(prime_windows) == 1
    assert peak < 16 * 2**20


def test_phi_at_splits_a_square_and_a_product_just_above_the_prime_bound(prime_windows):
    # p^2 takes the isqrt test; p q with p just above 2^18 takes Pollard-Brent.
    square = 2**26 - 5
    low = next(p for p in range(2**18 + 1, 2**19, 2) if sieve._is_prime(p))
    high = next(q for q in range(2**52 // low, 0, -1) if sieve._is_prime(q))
    assert sieve._is_prime(square) and low < 2**18 + 10 and low * high <= 2**52
    assert not sieve._is_prime(0) and not sieve._is_prime(1)
    assert _phi_at(np.array([square**2, low * high, 6 * square])).tolist() == [
        square * (square - 1), (low - 1) * (high - 1), 2 * (square - 1),
    ]
    assert len(prime_windows) == 1


#: OEIS A014233 below 2^52: the least strong pseudoprime to the first k prime
#: bases for k = 1..7; the last also passes base 19, so base 23 settles it.
STRONG_PSEUDOPRIMES = [
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321,
]


def test_miller_rabin_refuses_the_strong_pseudoprimes_below_2_52():
    assert [sieve._is_prime(n) for n in STRONG_PSEUDOPRIMES] == [False] * 7
    # 341,550,071,728,321 = 10,670,053 x 32,010,157, both prime.
    n = STRONG_PSEUDOPRIMES[-1]
    assert sieve._is_prime(10_670_053) and sieve._is_prime(32_010_157)
    assert sieve.largest_prime_factor(n) == 32_010_157
    assert _phi_at(np.array([n])).tolist() == [10_670_052 * 32_010_156] == [341_550_029_048_112]


def _distinct_primes(values):
    """Each value's distinct primes from one ``_factor_at`` call, in increasing order."""
    at, primes = _factor_at(np.array(values, dtype=np.int64))
    assert at.dtype == primes.dtype == np.int64
    found = [[] for _ in values]
    for i, p in zip(at.tolist(), primes.tolist()):
        found[i].append(p)
    return [sorted(f) for f in found]


def _oracle_primes(n):
    return [p for p, _ in oracle_factorize(n)]


@SETTINGS
@given(st.lists(st.integers(1, 10**6) | st.integers(2**31 - 300, 2**31 + 100), max_size=40))
@example([])
@example([2**31 - 1, 2**31, 2**31 + 1])  # the int32 / int64 switch
@example([1, 1, 2, 4, 2 * 3 * 5 * 7 * 11 * 13 * 17])
def test_factor_at_matches_the_oracle(values):
    assert _distinct_primes(values) == [_oracle_primes(n) for n in values]


def test_factor_at_settles_constructed_values_with_one_prime_list(prime_windows):
    # p^2 and p q just above the trial primes, primes near 2^52 and 2^52
    # itself, in one call: every remainder past 2^18 is settled without a
    # second prime list.
    def is_prime(n):
        return oracle_factorize(n) == [(n, 1)]

    low, nxt = [p for p in range(2**18 + 1, 2**18 + 100, 2) if is_prime(p)][:2]
    top_primes = [q for q in range(2**52 - 1, 2**52 - 200, -2) if is_prime(q)][:2]
    high = next(q for q in range(2**52 // low, 0, -1) if is_prime(q))
    values = [1, low**2, low * nxt, low * high, (2**26 - 5) ** 2, *top_primes, 2**52, 2**52 - 1]
    assert _distinct_primes(values) == [_oracle_primes(n) for n in values]
    assert prime_windows == [2**18 - 5]  # the largest prime below 2^18


def test_split_semiprime_takes_the_next_seed_when_a_walk_fails():
    # The walk from c = 1 meets both factors of 5 * 97 at the same step.
    assert sieve._pollard_brent(5 * 97, 1) == 5 * 97
    assert sieve._split_semiprime(5 * 97) in (5, 97)


def _stepwise_pollard_brent(n, c):
    """Brent's walk with one gcd per step, as ``sieve._pollard_brent`` took it before its blocks."""
    x, r = 2, 1
    while True:
        saved = x
        for _ in range(r):
            x = (x * x + c) % n
            g = math.gcd(x - saved, n)
            if g != 1:
                return g
        r *= 2


@SETTINGS
@given(
    st.sampled_from([3, 5, 97, 2**18 + 3, 2**26 - 5, 67_108_859]),
    st.sampled_from([7, 11, 101, 2**18 + 13, 2**26 - 5, 67_108_837]),
    st.integers(1, 4),
)
def test_pollard_brent_blocks_find_the_factor_of_one_gcd_per_step(p, q, c):
    # The differences of a block share one gcd; a block that hits goes again
    # step by step, so the first step whose gcd is not 1 gives the factor.
    assert sieve._pollard_brent(p * q, c) == _stepwise_pollard_brent(p * q, c)


def test_strides_end_in_a_window_holding_zero():
    # Every p^k divides 0, so the powers of p once ran on without end here.
    def first_strides(lo, hi, bound):
        return list(itertools.islice(sieve._strides(lo, hi, sieve.primes_upto(bound)), 100))

    assert first_strides(0, 10, 3) == [(2, 1, 0), (2, 2, 0), (2, 3, 0), (3, 1, 0), (3, 2, 0)]
    assert first_strides(0, 1, 3) == []


@SETTINGS
@given(st.integers(1, 3000), FIXED_Y, st.integers(0, 400) | st.just(math.inf))
def test_generated_smooth_n_match_the_oracle_up_to_the_cap(top, y, cap):
    values = sieve._smooth_upto(top, y, cap)
    smooth = oracle_smooth_list(0, top, y)
    if len(smooth) > cap:
        assert values is None
    else:
        assert values.dtype == np.int64 and values.tolist() == smooth


@SETTINGS
@given(st.integers(1, 10**6), st.sampled_from([1, 1.5, 2, 3, 7, 30, 100, 286, 1000, 5e4, math.inf]))
def test_the_lower_bound_of_psi_holds(top, y):
    assert sieve._smooth_floor(top, y) <= psi(top, y)


def test_generation_stops_past_its_cap_before_sieving_primes_past_it(monkeypatch):
    # Every n <= min(y, top) is smooth, so such a bound past the cap stops
    # the generator before it sieves a prime; near the cap it stops once
    # its count passes it.
    asked = []
    primes_upto = sieve.primes_upto
    monkeypatch.setattr(sieve, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    assert sieve._smooth_upto(2**52, math.inf, 2**18) is None
    assert asked == []
    assert sieve._smooth_upto(2**52, 30, 10**5) is None
    assert asked == [30]


@pytest.mark.parametrize(
    "x, y, generated",
    [
        (1e8, 30, True),  # 88,415 sparse smooth n: generated
        (1e6, 200, False),  # the count passes the crossover while generating: the sieve
        (4.5e6, 1e3, False),  # dense by its lower bound alone: the sieve, nothing generated
        (3e4, 1e5, False),
        # The grid of the crossover at y = 100 and 300.
        (1e8, 100, True),
        (3e8, 100, True),
        (1e7, 100, False),
        (3e7, 100, False),
        (1e8, 300, False),
    ],
)
def test_the_pass_picks_its_route_from_the_arguments(x, y, generated, quotient_counts):
    # The seam's value is the route: None sends the pass to the sieve, and
    # the forced routes show the pass following it.  No pass runs here.
    values = sieve._generated_smooth(1, math.floor(x), y, [1])
    assert (values is not None) == generated
    assert quotient_counts == []  # the choice counts no psi


def test_a_pass_past_2_18_smooth_n_is_generated(quotient_counts):
    # The generated route stopped at 2^18 smooth n, so this pass sieved
    # 11,444 segments in 24-30 s; generated, it takes about 2 s.
    values = sieve._generated_smooth(0, 3 * 10**9, 30, [1])
    assert values.size == 275_335 > sieve.STREAM_SEGMENT
    assert quotient_counts == []
    assert psi(3e9, 30) == values.size


def test_the_stream_segment_does_not_cap_a_generated_pass():
    # Psi(1e6, 30) = 14,697 smooth n are more than a segment of 2^10, and
    # the pass is generated all the same, in runs of 2^10 of them.
    with stream_segment(2**10):
        assert sieve._generated_smooth(1, 10**6, 30, [1]) is not None
        windows = list(sieve._smooth_phi_shifted(1, 10**6, 30, [1]))
        generated = t_exact(1e6, 30, 1).hex()
    with forced_route("sieve") as calls:
        sieved = t_exact(1e6, 30, 1).hex()
    assert len(windows) == 15 and calls
    assert generated == sieved


def test_a_generated_pass_stops_at_its_capacity_and_sieves(monkeypatch):
    # Psi(1e6, 30) = 14,697 smooth n: a cap of 14,697 generates them, and one
    # fewer stops the generation and sends the pass to the sieve, where the
    # sparse rule alone would generate up to about 71,600 of them.
    want = t_exact(1e6, 30, 1).hex()
    calls = []
    for name in ("_sieve_phi_segment", "_generated_phi_segments"):
        kernel = getattr(sieve, name)
        monkeypatch.setattr(sieve, name, lambda *args, n=name, k=kernel: calls.append(n) or k(*args))
    for cap, route in ((14_697, "_generated_phi_segments"), (14_696, "_sieve_phi_segment")):
        monkeypatch.setattr(sieve, "GENERATED_CAPACITY", cap)
        calls.clear()
        values = sieve._generated_smooth(1, 10**6, 30, [1])
        assert (values is None) == (route == "_sieve_phi_segment")
        assert t_exact(1e6, 30, 1).hex() == want
        assert set(calls) == {route}


def test_a_generated_pass_yields_one_window_per_run(monkeypatch):
    # The stream's memory bound: a window holds at most STREAM_SEGMENT //
    # len(shifts) smooth n, from the first to the last of its run, and
    # takes one ``_phi_at`` per shift.
    shifts = [1, -2, 5]
    phi_calls = []
    phi_at = sieve._phi_at
    monkeypatch.setattr(sieve, "_phi_at", lambda values: phi_calls.append(values) or phi_at(values))
    with stream_segment(100), forced_route("generated") as calls:
        windows = list(sieve._smooth_phi_shifted(0, 10**5, 30, shifts))
    run, count = 100 // len(shifts), psi(1e5, 30)
    assert len(calls) == 1 and len(windows) == -(-count // run)
    assert len(phi_calls) == len(windows) * len(shifts)
    bounds = [(s, e) for s, e, _rows in windows]
    assert all(s <= e < after for (s, e), (after, _e) in zip(bounds, bounds[1:]))
    for s, e, rows in windows:
        idx = rows[1][0]  # every n of the window is above max(-2, 0)
        assert 0 < idx.size <= run and (idx[0], idx[-1]) == (0, e - s)
    assert sum(rows[1][0].size for _s, _e, rows in windows) == count


def test_phi_at_returns_on_a_zero():
    # A 0 is outside the values ``_phi_at`` is for, but it once divided
    # forever in ``_factor_at``; the alarm makes a regression fail this test
    # instead of hanging the suite.
    def expire(signum, frame):
        raise TimeoutError("_phi_at did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        assert _phi_at(np.array([0, 5])).tolist() == [0, 4]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def _segment_windows(s, e, y, shifts):
    """The windows of ``_sieve_phi_segment`` over [s, e], as a pass of that one segment."""
    return list(_sieve_phi_segment(s, e, y, shifts, _PassContext(s, e, shifts, rows=2)))


def _segment_rows(s, e, y, shifts):
    """The (idx, phi) row of each shift over the whole segment [s, e], idx from s.

    ``_sieve_phi_segment`` yields the segment in windows; this joins them.
    """
    windows = _segment_windows(s, e, y, shifts)
    none = np.zeros(0, dtype=np.int64)
    return [
        (
            np.concatenate([none, *(rows[j][0] + (ws - s) for ws, _we, rows in windows)]),
            np.concatenate([none, *(rows[j][1] for _ws, _we, rows in windows)]),
        )
        for j in range(len(shifts))
    ]


def test_kernels_on_both_sides_of_the_int32_remainder():
    # hi < 2^31 builds the smooth part in int32, hi >= 2^31 in int64, up to
    # the largest window the sieve accepts.
    windows = ((2**31 - 40, 2**31 - 1), (2**31 - 20, 2**31 + 20), (2**52 - 40, 2**52))
    for lo, hi in windows:
        ns = range(lo, hi + 1)
        lpf = [oracle_lpf(n) for n in ns]
        for y in (7, 1000, 46340.5, math.inf):
            assert _smooth_mask(lo, hi, y, _PassContext(lo, hi)).tolist() == [p <= y for p in lpf]
        # The union strip of a shift by -1 over [lo - 1, hi - 1] is phi on [lo, hi].
        assert _segment_rows(lo - 1, hi - 1, math.inf, [-1])[0][1].tolist() == [
            oracle_phi(n) for n in ns
        ]
        primes = sieve.primes_upto(math.isqrt(hi))
        assert _mu_segment(lo, hi, primes).tolist() == [oracle_mu(n) for n in ns]
        tau, omega = _tau_omega(lo, hi, primes)
        assert tau.tolist() == [oracle_tau(n) for n in ns]
        assert omega.tolist() == [oracle_omega(n) for n in ns]


@st.composite
def shifted_cases(draw):
    """A segment [s, e] below 10^6 or across 2^31, up to four distinct
    shifts with every n - a <= 2^52, and a y for every route of the kernel:
    at or above isqrt of the top of the union window [min(s, s - max a),
    max(e, e - min a)] with the shifts and 0 spread over at most e - s (one
    union strip), or a lower y or shifts spread wider (the mask, then one
    strip of each band's window).  A shift at or past s leaves the n <= a
    of the segment out."""
    size = draw(st.integers(1, 200))
    if draw(st.booleans()):
        s = draw(st.integers(21, 10**6))
    else:
        s = 2**31 - draw(st.integers(0, size + 20))
    e = s + size - 1
    longer = st.sampled_from([size - 1, 1 - size, size, -size, size + 7, -(10**5), s, e - 3])
    shifts = draw(st.lists((st.integers(-20, 20) | longer).filter(bool), min_size=1, max_size=4,
                           unique=True))
    root = math.isqrt(max(e, e - min(shifts)))
    y = draw(st.sampled_from([2, 30, root - 1, root, root + 0.5, 1e5, math.inf]))
    return s, e, y, shifts


@SETTINGS
@given(shifted_cases())
@example((2**52 - 60, 2**52, math.inf, [7]))
@example((1, 2, math.inf, [-1]))  # a union top below 4: phi(2) from a remainder of 2
@example((2**31 - 30, 2**31 + 30, math.inf, [-15]))
@example((10**5, 10**5 + 199, 316, [-199]))  # isqrt of the union top: the union strip
@example((10**5, 10**5 + 199, 315, [-199]))  # just below it: the mask and the window
@example((10**5, 10**5 + 199, 30, [-200]))  # sparse smooth n: the mask and the window
@example((2**31 + 1, 2**31 + 200, 2, [200]))  # no smooth n at all
@example((10**5, 10**5 + 199, 316, [-150, -3, 5]))  # one union strip for three shifts
@example((10**5, 10**5 + 199, 1e5, [-5000, -4900, 3, 10**5 + 150]))  # two bands and a late shift
def test_smooth_phi_shifted_matches_mask_window_and_oracle(case):
    s, e, y, shifts = case
    smooth = np.flatnonzero(_smooth_mask(s, e, y, _PassContext(s, e))).tolist()
    for a, (idx, phi) in zip(shifts, _segment_rows(s, e, y, shifts), strict=True):
        assert idx.tolist() == [i for i in smooth if s + i > max(a, 0)]
        assert phi.dtype == np.int64
        assert phi.tolist() == [oracle_phi(int(n)) for n in idx + (s - a)]


@pytest.mark.parametrize(
    "y, shifts, strips",
    [
        (400, [-199], [399]),  # |a| <= e - s and y >= isqrt(e - a): the union window
        (400, [199], [399]),
        # A shift past the segment: the mask, then the shifted window from the
        # least smooth n (s) to the largest (s + 192).
        (400, [-200], [193]),
        (315, [-199], [193]),  # y below isqrt(e - a): likewise
        (30, [-200], [189]),  # sparse smooth n: likewise; only a generated pass takes _phi_at
        (400, [-150, -3, 5], [355]),  # the shifts and 0 spread over at most e - s: one union strip
        (1e5, [-5000, -4900, 3], [300, 200]),  # wider: the mask, then one window per band
        (1e5, [-5000, 10**5 + 199], [200]),  # a shift at e has no n above it and strips nothing
        (2, [-200, 5], []),  # no smooth n in the segment: the mask alone
    ],
)
def test_smooth_phi_shifted_picks_its_route(y, shifts, strips, phi_window_entries):
    s, e = 10**5, 10**5 + 199
    rows = _segment_rows(s, e, y, shifts)
    assert phi_window_entries == strips
    for a, (idx, phi) in zip(shifts, rows, strict=True):
        assert phi.tolist() == [oracle_phi(int(n)) for n in idx + (s - a)]


@pytest.mark.parametrize(
    "y, shifts, union",
    [
        (400, [-150, -3, 5], True),  # one union strip for three shifts
        (1e5, [-5000, -4900, 3], False),  # the mask, then one strip per band
        (400, [-200], False),  # a shift past the segment: the mask, then its window
        (1e5, [-5000, 10**5 + 150], False),  # a shift inside the segment leaves its n <= a out
        (30, [-200, 7], False),  # few smooth n: the mask's blocks join into longer windows
    ],
    ids=["union", "bands", "past-the-segment", "inside-the-segment", "sparse"],
)
def test_a_sieved_segment_is_read_in_windows_of_the_read_block(
    y, shifts, union, phi_window_entries
):
    # Strips per segment, reads per window: at a block of 16 the segment's
    # 200 entries come in windows of whole blocks with at most 16 smooth n,
    # from the same strips.  A union strip reads one block per window.
    s, e, block = 10**5, 10**5 + 199, 16
    _segment_windows(s, e, y, shifts)
    whole = phi_window_entries[:]
    phi_window_entries.clear()
    with read_block(block):
        windows = _segment_windows(s, e, y, shifts)
    assert phi_window_entries == whole
    smooth = [n for n in range(s, e + 1) if oracle_is_smooth(n, y)]
    bounds = [(ws, we) for ws, we, _rows in windows]
    assert all(s <= ws <= we <= e for ws, we in bounds)
    assert all(we < after for (_ws, we), (after, _e) in zip(bounds, bounds[1:]))
    assert all((ws - s) % block == 0 for ws, _we in bounds)
    assert all(we == e or (we + 1 - s) % block == 0 for _ws, we in bounds)
    assert all(0 < sum(ws <= n <= we for n in smooth) <= block for ws, we in bounds)
    assert all(we - ws < block for ws, we in bounds) or not union
    for j, a in enumerate(shifts):
        ns = [ws + i for ws, _we, rows in windows for i in rows[j][0].tolist()]
        assert ns == [n for n in smooth if n > max(a, 0)]
        assert all(rows[j][1].dtype == np.int64 for _ws, _we, rows in windows)
        phi = [v for _ws, _we, rows in windows for v in rows[j][1].tolist()]
        assert phi == [oracle_phi(n - a) for n in ns]


def test_the_sieve_route_strips_each_segment_once(strip_windows):
    # Reading in blocks of 64 entries calls the segment kernel and strips
    # once per segment of 1000, as reading each segment whole did.
    want = t_exact(10**4, 1e5, 1).hex()
    strip_windows.clear()
    with stream_segment(1000), read_block(64), forced_route("sieve") as calls:
        got = t_exact(10**4, 1e5, 1).hex()
    assert len(calls) == len(strip_windows) == 10  # the segments of (1, 10^4]
    assert got == want


@pytest.mark.parametrize(
    "y, windows", [(math.inf, 16), (1e3, 6), (30, 1)], ids=["union", "mask", "sparse"]
)
def test_a_full_segment_is_read_in_read_block_windows(y, windows):
    # A union strip reads each 2^14-entry block as a window; the mask joins
    # whole blocks while they hold at most 2^14 smooth n between them.
    s, e = 2**20 + 1, 2**20 + sieve.STREAM_SEGMENT
    block = sieve._READ_BLOCK
    mask = _smooth_mask(s, e, y, _PassContext(s, e))
    got = _segment_windows(s, e, y, [1, -2])
    bounds = [(ws, we) for ws, we, _rows in got]
    assert len(bounds) == windows and bounds[0][0] == s and bounds[-1][1] == e
    assert all(we + 1 == after for (_ws, we), (after, _e) in zip(bounds, bounds[1:]))
    assert all((ws - s) % block == 0 for ws, _we in bounds)
    held = [int(np.count_nonzero(mask[ws - s : we - s + 1])) for ws, we in bounds]
    assert all(0 < count <= block for count in held)
    assert [rows[0][0].size for _ws, _we, rows in got] == held
    [_one, (idx, phi)] = _segment_rows(s, e, y, [1, -2])
    assert phi.tolist() == _phi_at(idx + (s + 2)).tolist()


@contextmanager
def _strips_taken():
    """Context manager: a list that gets the ``out`` array of every strip made while it is open."""
    taken = []
    strip = sieve._strip_primes

    def counted(lo, hi, primes, kind="part", out=None):
        taken.append(out)
        return strip(lo, hi, primes, kind, out)

    with patch.object(sieve, "_strip_primes", counted):
        yield taken


def _buffers(strips):
    """The first strip of each distinct buffer that the strips are views of, in order of use."""
    bases = []
    for strip in strips:
        if not any(np.shares_memory(strip, base) for base in bases):
            bases.append(strip)
    return bases


def _sieved_totals(x, y, shifts):
    """(T, V) of each shift by float.hex through the sieve route, with its strips and segments."""
    with forced_route("sieve") as calls, _strips_taken() as taken:
        rows = shifted._shifted_totals([x], y, shifts)
    return [(t.hex(), v.hex()) for [(_psi, t, v)] in rows], taken, len(calls)


def _oracle_totals(x, y, shifts):
    return [(oracle_t_float(x, y, a).hex(), float(oracle_v(x, y, a)).hex()) for a in shifts]


@pytest.fixture
def primes_asked(monkeypatch):
    """The bound of every ``primes_upto`` call made while the test runs."""
    asked = []
    primes_upto = sieve.primes_upto
    monkeypatch.setattr(sieve, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    return asked


@pytest.mark.parametrize(
    "y, shifts, buffers, asked",
    [
        (1e5, [1, -2], 1, [92]),  # one union strip per segment
        (30, [1, -2], 1, [30, 92]),  # the mask, then one band, in the same rows
        (1e5, [-1500, 1, 2500], 3, [100]),  # the mask and three bands: one buffer per band
    ],
    ids=["union", "mask", "bands"],
)
def test_a_sieved_pass_strips_every_segment_into_its_own_buffers(y, shifts, buffers, asked,
                                                                 primes_asked):
    # A pass of 9 segments makes its buffers once: the mask strip and the
    # union or first band strip take buffer 0, and each further band one
    # more.  Each holds a segment plus the widest spread of the shifts and 0
    # within one segment (3, or 1 for the bands), not plus the 4000 of all.
    # It sieves the primes of each kind of strip at most once, at the most
    # that kind can ask for the pass's largest n - a, 8500 - min(a, 0): the
    # masks up to min(y, isqrt(8500 - min(a, 0))), and the union and band
    # strips, if the masks' primes do not reach that far, up to
    # isqrt(8500 - min(a, 0)), where each segment once sieved its own.
    with stream_segment(1000):
        got, taken, segments = _sieved_totals(8500, y, shifts)
    assert primes_asked == asked
    assert got == _oracle_totals(8500, y, shifts)
    assert segments == 9
    assert len(_buffers(taken)) == buffers
    assert all(np.shares_memory(strip, taken[0]) for strip in taken if strip.shape[0] == 1)
    assert {strip.base.shape for strip in taken} == {(2, 1003 if buffers == 1 else 1001)}


def test_a_shorter_last_segment_strips_into_the_first_segments_buffer():
    with stream_segment(1000):
        got, taken, segments = _sieved_totals(7300, 1e3, [1])
    assert got == _oracle_totals(7300, 1e3, [1])
    assert segments == 8
    assert taken[-1].shape[1] < taken[0].shape[1]
    assert all(np.shares_memory(strip, taken[0]) for strip in taken)


def test_a_band_wider_than_the_segment_strips_into_its_buffer():
    # The band of -900 and -100 reads phi from its smooth n (up to 1000 of
    # them) shifted by 100 to 900: a window of up to 1800 entries.
    with stream_segment(1000):
        got, taken, segments = _sieved_totals(8000, 1e5, [-900, -100, 2000])
    assert got == _oracle_totals(8000, 1e5, [-900, -100, 2000])
    assert segments == 8
    wide = [strip for strip in taken if strip.shape[1] > 1000]
    assert wide and all(np.shares_memory(strip, taken[0]) for strip in wide)
    assert len(_buffers(taken)) == 2


@pytest.mark.parametrize("y, shifts", [(math.inf, [1, -2]), (1e3, [1, -300])], ids=["union", "mask"])
def test_a_pass_across_2_31_makes_its_buffer_again_once(y, shifts):
    # Below 2^31 the strips are int32 and above it int64; the int64 buffer
    # also holds the int32 mask strips of the segments just below 2^31.
    lo, hi = 2**31 - 2000, 2**31 + 2000
    with stream_segment(500), forced_route("sieve") as calls, _strips_taken() as taken:
        windows = list(sieve._smooth_phi_shifted(lo, hi, y, shifts))
    assert len(calls) == 8
    bases = _buffers(taken)
    assert [base.dtype for base in bases] == [np.int32, np.int64]
    assert {strip.dtype for strip in taken} == {np.dtype(np.int32), np.dtype(np.int64)}
    smooth = oracle_smooth_list(lo, hi, y)
    for j, a in enumerate(shifts):
        terms = [
            float(phi) / (n - a)
            for s, _e, rows in windows
            for n, phi in zip((s + rows[j][0]).tolist(), rows[j][1].tolist())
        ]
        want = [oracle_phi(n - a) / (n - a) for n in smooth if n > max(a, 0)]
        assert math.fsum(terms).hex() == math.fsum(want).hex()
        assert len(terms) == len(want)


def test_the_smooth_values_stream_sieves_its_mask_primes_once(primes_asked):
    # The masks of the 9 segments take the primes up to isqrt(e), 31 to 92.
    with stream_segment(1000):
        values = [n for chunk in census._segment_values(0, 8500, 1e3) for n in chunk.tolist()]
    assert primes_asked == [92]
    assert values == oracle_smooth_list(0, 8500, 1e3)


def test_aux_averages_sieves_its_primes_once_per_kind_of_strip(primes_asked):
    # The first mask sieves the primes up to isqrt(8500 + 2000) = 102, the
    # most that a mask or tau and omega of n + 2000 ask, and no later strip
    # sieves again.
    with stream_segment(1000):
        got = aux_averages(8500, 1e3, -2000)
    assert primes_asked == [102]
    smooth = oracle_smooth_list(0, 8500, 1e3)
    assert got == (
        sum(oracle_tau(n + 2000) for n in smooth) / len(smooth),
        sum(oracle_omega(n + 2000) for n in smooth) / len(smooth),
    )


def test_the_moduli_of_the_mobius_split_sieve_their_primes_once(primes_asked):
    # The T pass sieves its union strips' primes (up to isqrt(900) = 30)
    # once, and the 9 segments of moduli d <= 899 theirs for mu (up to 29);
    # their mu strips, after the 9 union strips, all take one buffer.
    x, y, a, delta = 900, 1e3, 1, 100
    with stream_segment(100), forced_route("sieve") as calls, _strips_taken() as taken:
        split = t_via_mobius(x, y, a, delta)
    assert len(calls) == 9
    assert primes_asked == [30, 29]
    mu_strips = taken[len(calls) :]
    assert len(mu_strips) == 9 and len(_buffers(mu_strips)) == 1
    smooth = oracle_smooth_list(a, x, y)
    terms = [
        (d, oracle_mu(d) * sum((n - a) % d == 0 for n in smooth) / d) for d in range(1, x - a + 1)
    ]
    assert split.sigma1.hex() == math.fsum(term for d, term in terms if d <= delta).hex()
    assert split.sigma2.hex() == math.fsum(term for d, term in terms if d > delta).hex()
    assert split.t.hex() == oracle_t_float(x, y, a).hex()


def test_smooth_phi_shifted_strips_no_window_past_its_segment(phi_window_entries):
    # A shift of -2^40 once asked for a union window of 2^40 entries.
    [(idx, phi)] = _segment_rows(1, 100, math.inf, [-(2**40)])
    assert idx.tolist() == list(range(100))
    assert phi.tolist() == [oracle_phi(n + 2**40) for n in range(1, 101)]
    assert phi_window_entries and max(phi_window_entries) <= 100


def test_smooth_phi_shifted_counts_no_primes_near_2_52(monkeypatch):
    # The route choice once sieved the primes up to 2^26 here only to count
    # them: 1.3 s and 96 MiB for one segment.  With y = 1 only n = 1 is
    # smooth, so the pass is generated, and 1 - a = 2^22 (2^30 - 1) has
    # small primes alone.
    a = 1 - 2**22 * (2**30 - 1)
    asked = []
    primes_upto = sieve.primes_upto
    monkeypatch.setattr(sieve, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    assert sieve._generated_smooth(0, 2**22, 1, [a]).tolist() == [1]
    [(s, e, [(idx, phi)])] = sieve._smooth_phi_shifted(0, 2**22, 1, [a])
    assert 2**22 - a == 2**52 - 1
    assert (s, e, idx.tolist(), phi.tolist()) == (1, 1, [0], [oracle_phi(1 - a)])
    assert t_exact(2**22, 1, a) == oracle_phi(1 - a) / (1 - a)
    assert max(asked) <= 2**18


def test_a_sieved_segment_with_no_smooth_n_strips_nothing(monkeypatch, phi_window_entries):
    # No n of this segment is 30-smooth.  Stripping the shift's window all
    # the same would sieve the primes up to isqrt(e - a) = 2^26 and stride
    # them over 2^18 entries, for every empty segment of a sieved pass.
    s, e = 2**51 + 1, 2**51 + 2**18
    a = e - 2**52
    asked = []
    primes_upto = sieve.primes_upto
    monkeypatch.setattr(sieve, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    [(idx, phi)] = _segment_rows(s, e, 30, [a])
    assert (idx.size, phi.size) == (0, 0)
    assert phi_window_entries == []
    assert max(asked) <= 30


def test_a_sieved_segment_strips_only_the_span_of_its_smooth_n(phi_window_entries):
    # 2^46 is the one 30-smooth n of its segment.  A strip of the whole
    # window would stride the primes up to 2^23 over 2^18 entries.
    n = 2**46
    s, e = n - 2**17, n + 2**17 - 1
    [(idx, phi)] = _segment_rows(s, e, 30, [1])
    assert (s + idx).tolist() == [n]
    assert phi.tolist() == [oracle_phi(n - 1)]
    assert phi_window_entries == [1]


def test_a_generated_pass_sieves_its_trial_primes_once(monkeypatch):
    # The route choice once sieved the primes up to isqrt(e - a) to count
    # them, and ``_phi_at`` then sieved the same primes for its trial
    # division.  Now a pass of one window sieves the primes up to y to
    # generate its smooth n and the trial primes, and no others.
    x, y, a = 10**6, 30, -200
    top = int(sieve._smooth_upto(x, y, math.inf)[-1])
    asked = []
    primes_upto = sieve.primes_upto
    monkeypatch.setattr(sieve, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    [(s, e, [(idx, phi)])] = sieve._smooth_phi_shifted(0, x, y, [a])
    assert (s, e, idx.size) == (1, top, psi(x, y))
    assert phi.tolist() == [oracle_phi(int(n)) for n in idx + (s - a)]
    assert asked == [y, math.isqrt(top - a)]


#: The oracle's phi, kept across the examples below, whose values n - a
#: all lie below 10^4 + 20.
_cached_oracle_phi = functools.cache(oracle_phi)


def _mask_route(lo, hi, y, shifts):
    """A pass without the totient routes: the mask of each segment, then phi from the oracle."""
    context = _PassContext(lo + 1, hi)
    for s, e in context.segments():
        idx = np.flatnonzero(_smooth_mask(s, e, y, context))
        rows = []
        for a in shifts:
            above = idx[idx > max(a, 0) - s]
            phi = [_cached_oracle_phi(n) for n in (above + (s - a)).tolist()]
            rows.append((above, np.array(phi, dtype=np.int64)))
        yield s, e, rows


def _mask_reduced(lo, hi, y, shifts, reduce):
    """``sieve._reduce_pass`` in one part, over the windows of ``_mask_route``."""
    return [reduce(_mask_route(lo, hi, y, shifts))]


@st.composite
def union_sum_cases(draw):
    x = draw(st.integers(1, 5000) | st.floats(1, 5000))
    segment = draw(st.integers(max(1, math.floor(x) // 64), math.floor(x) + 10))
    a = draw(st.integers(-20, 20).filter(bool) | st.sampled_from([segment, -segment - 3]))
    root = math.isqrt(math.floor(x) - min(a, 0))
    y = draw(
        st.sampled_from([2, 7, 30, root - 1, root, root + 0.5, 1e5, math.inf])
        .filter(lambda v: v >= 1)
    )
    return x, y, a, segment


@pytest.mark.parametrize("route", ["sieve", "generated"])
@SETTINGS
@given(union_sum_cases())
@example((120, 10, -1, 1000))  # isqrt(120) <= y < isqrt(121): 11 must not count as 10-smooth
def test_t_and_v_match_the_mask_route(route, case):
    # The patch replaces the whole pass, so no route can bypass it, and the
    # forced route is seen running by its call count.
    x, y, a, segment = case
    sums = (t_exact, v_exact, v_via_abel)
    with stream_segment(segment):
        # The sieve reads its segments in blocks of 7 entries, so that
        # window edges fall inside segments and bands.
        with forced_route(route) as calls, read_block(7) if route == "sieve" else nullcontext():
            got = [fn(x, y, a).hex() for fn in sums]
        with patch.object(shifted, "_smooth_phi_shifted", _mask_route), \
                patch.object(shifted, "_reduce_pass", _mask_reduced):
            want = [fn(x, y, a).hex() for fn in sums]
    assert got == want
    assert calls or math.floor(x) <= max(a, 0)


def test_the_totient_routes_live_in_the_sieve_module():
    # One owner of the route: no other module names the route's threshold or
    # its windows, and the shifted sums take no materialized smooth set.
    package = Path(smoothlab.__file__).parent
    owned = {"SPARSE_PHI_FACTOR", "_phi_from_part", "_strip_primes"}
    named = {
        path.name: sorted(owned & set(re.findall(r"\w+", path.read_text())))
        for path in sorted(package.glob("*.py"))
    }
    assert named["sieve.py"] == sorted(owned)
    assert {name: found for name, found in named.items() if found and name != "sieve.py"} == {}
    imported = {
        alias.name
        for node in ast.walk(ast.parse((package / "shifted.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_smooth_phi_shifted" in imported
    assert imported.isdisjoint({"SmoothRange", "_phi_at"})
    # The sieve route strips every totient window; only a generated pass
    # factors its values.  The segment length is no cap on the routes: it
    # cuts the sieve's segments and the generated runs, and nothing else.
    sieve_tree = ast.parse((package / "sieve.py").read_text())
    assert _calls_to("_phi_at", sieve_tree) == ["_generated_phi_segments"]
    functions = [fn for fn in ast.walk(sieve_tree) if isinstance(fn, ast.FunctionDef)]
    readers = [fn.name for fn in functions for _read in _reads_of("STREAM_SEGMENT", fn)]
    assert set(readers) == {"segments", "_generated_phi_segments"}
    assert len(readers) == len(_reads_of("STREAM_SEGMENT", sieve_tree))  # none outside them
    assert [path.name for path in package.glob("*.py") if "STREAM_SEGMENT" in path.read_text()] == [
        "sieve.py"
    ]


def _calls_to(name, tree):
    """The names of the functions of ``tree`` that call ``name``, one entry per call."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def _reads_of(name, tree):
    """The nodes of ``tree`` that read the variable ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    ]


def test_one_factorization_serves_every_single_integer():
    # Single integers were factored in three loops: trial division to sqrt(n)
    # behind is_smooth, a prime table to sqrt(d) for the moduli, and
    # ``_phi_at``.  Now ``sieve._factor_at`` alone does it.
    package = Path(smoothlab.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    words = {name: set(re.findall(r"\w+", text)) for name, text in sources.items()}
    gone = {"_trial_divide", "_prime_divisors"}
    assert {name for name, found in words.items() if found & gone} == set()
    assert "primes_upto" not in words["experiments.py"]
    census_tree = ast.parse(sources["census.py"])
    assert sorted(_calls_to("primes_upto", census_tree)) == ["_buchstab_counts", "_prime_counts"]
    assert len([
        node for node in ast.walk(census_tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "primes_upto"
    ]) == 2
    sieve_tree = ast.parse(sources["sieve.py"])
    assert sorted(_calls_to("_factor_at", sieve_tree)) == [
        "_modulus_primes", "_phi_at", "largest_prime_factor",
    ]


def test_each_argument_is_checked_once_at_its_entry_point():
    # The mask, Moebius and shifted kernels ran ``_check_window`` again on
    # segments of a range their entry point had admitted, and ``_factor_at``
    # checked again the values its callers had checked, and so did the
    # tau/omega kernel of ``aux_averages``'s pass.  Only ``sieve_range``,
    # which takes windows from outside callers, checks them now.
    package = Path(smoothlab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    callers = [fn for tree in trees.values() for fn in _calls_to("_check_window", tree)]
    assert callers == ["sieve_range"]
    [factor_at] = [
        node for node in ast.walk(trees["sieve.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_factor_at"
    ]
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(factor_at))


def test_the_shifted_sums_read_windows_not_segments():
    # ``v_via_abel`` lined the pass up with the stream's segments to fill
    # every integer of each segment, and for it alone a generated pass was
    # cut into the segments that held its n (``segment_bounds(holding=...)``).
    # The one reader of the pass that still walks segments walks its moduli,
    # from 1, not the n of the pass.
    tree = ast.parse((Path(smoothlab.__file__).parent / "shifted.py").read_text())
    readers = set(_calls_to("_shifted_pass", tree))
    assert "v_via_abel" in readers
    assert readers & set(_calls_to("_PassContext", tree)) == {"t_via_mobius"}
    [mobius] = [fn for fn in tree.body if getattr(fn, "name", None) == "t_via_mobius"]
    assert [
        ast.literal_eval(node.args[0]) for node in ast.walk(mobius)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_PassContext"
    ] == [1]
    # The range, the shifts and the rows of the stream's widest strip alone
    # decide the segments and the buffers.
    assert list(inspect.signature(sieve._PassContext).parameters) == ["lo", "hi", "shifts", "rows"]
    assert list(inspect.signature(sieve._PassContext.segments).parameters) == ["self"]


def test_the_sieve_module_sieves_primes_for_strips_only_in_the_pass_context():
    # ``_strides`` called ``primes_upto`` for every window of every kernel:
    # 1,523 times with 384 distinct bounds in ``v_exact(1e8, 1e3, 1)``.  Now
    # the kernels take their primes from the stream's context, and the other
    # callers sieve the primes of a generation, a factorization or the one
    # window of ``sieve_range``.
    tree = ast.parse((Path(smoothlab.__file__).parent / "sieve.py").read_text())
    [context] = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_PassContext"
    ]
    assert _calls_to("primes_upto", context) == ["primes"]
    assert sorted(_calls_to("primes_upto", tree)) == [
        "_factor_at", "_modulus_primes", "_smooth_upto", "primes", "sieve_range",
    ]


def test_the_pass_kernels_have_no_public_twin():
    # ``census.enumerate_smooth`` was a public generator over the segments
    # that ``psi_progression`` reads, ``sieve.tau_omega_range`` a public
    # name for the kernel that only ``aux_averages``'s pass calls, and
    # ``shifted._smooth_tau_omega`` an adapter between that pass and it.
    # ``shifted.t_exact_fraction`` re-summed the T pass's own rows as
    # Fractions (``_tree_sum``, up to ``RATIONAL_MODE_LIMIT``), so it shared
    # the pass it was meant to check; the conftest oracles replace it.
    package = Path(smoothlab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = {
        node.name for tree in trees.values()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert defined.isdisjoint({
        "enumerate_smooth", "tau_omega_range", "_smooth_tau_omega", "t_exact_fraction", "_tree_sum",
    })
    assert not [name for name in trees if "RATIONAL_MODE_LIMIT" in (package / name).read_text()]
    assert not [
        node for node in ast.walk(trees["shifted.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and "fractions" in [alias.name for alias in node.names]
    ]
    assert [fn for tree in trees.values() for fn in _calls_to("_tau_omega", tree)] == [
        "aux_averages"
    ]
    # ``sieve_range`` shares the stride core with the kernels, so it is no
    # reference for them: only its own tests call it.
    readers = {
        (path.name, fn)
        for path in sorted(Path(__file__).parent.glob("test_*.py"))
        for fn in _calls_to("sieve_range", ast.parse(path.read_text()))
    }
    assert readers and {
        (name, fn) for name, fn in readers if name != "test_sieve.py" and "sieve_range" not in fn
    } == set()


def test_one_exact_sum_and_one_prime_count_bound():
    # ``_exact_int`` took some slices by exponent (np.frexp, one bincount per
    # exponent); the route choice of a shifted segment sieved primes to count
    # them; and a totient window of the tests' own repeated the phi strip.
    package = Path(smoothlab.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    numpy_calls = {
        node.func.attr
        for node in ast.walk(trees["shifted.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "np"
    }
    assert numpy_calls.isdisjoint({"frexp", "bincount"})
    assert set(re.findall(r"\w+", sources["sieve.py"])).isdisjoint(
        {"_prime_count", "_EXACT_PRIME_COUNT"}
    )
    assert [
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_phi_segment"
    ] == []


def test_each_rule_has_one_definition():
    # The CLI carried the rho rule of psi_estimate, the pass check of the
    # shifted sums and one copy of --x, --y and --a per subcommand;
    # the tau/omega kernel rebuilt the smooth part, and the scan and range_check
    # each wrote the theorem-range bound.
    package = Path(smoothlab.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    cli_words = set(re.findall(r"\w+", sources["cli.py"]))
    assert cli_words.isdisjoint({"UNDERFLOW_FROM", "_check_table", "_check_pass"})
    for option in ("--x", "--y", "--a"):
        assert sources["cli.py"].count(f'add_argument("{option}"') == 1, option
    [tau_omega] = [
        node for node in ast.walk(ast.parse(sources["sieve.py"]))
        if isinstance(node, ast.FunctionDef) and node.name == "_tau_omega"
    ]
    assert _calls_to("_strip_primes", tau_omega) == ["_tau_omega"]
    assert _calls_to("_wheel_fill", tau_omega) == []
    sieve_tree = ast.parse(sources["sieve.py"])
    assert _calls_to("_wheel_fill", sieve_tree) == ["_strip_primes"]
    # mu had a stride walk of its own; it is now a kind of strip.
    assert sorted(set(_calls_to("_strides", sieve_tree))) == [
        "_strip_primes", "_tau_omega", "_wheel_fill", "sieve_range",
    ]
    assert "_mu_segment" in _calls_to("_strip_primes", sieve_tree)
    bound = r"math\.log\(math\.log\(math\.log\("
    assert len(re.findall(bound, sources["experiments.py"])) == 1


def test_the_coprime_count_has_one_owner():
    # ``ft_ratio_scan`` kept its own copy of psi_coprime's algorithm: the
    # Moebius terms of every modulus and one quotient count over all of them.
    package = Path(smoothlab.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert set(re.findall(r"\w+", sources["experiments.py"])).isdisjoint(
        {"_moebius_terms", "_psi_quotients"}
    )
    census_tree = ast.parse(sources["census.py"])
    assert sorted(_calls_to("_psi_quotients", census_tree)) == ["_coprime_counts", "psi"]
    # It deduplicated the terms, read them, gathered them back and split them
    # per list; now it takes one signed sum over the terms as given.
    assert set(re.findall(r"\w+", sources["census.py"])).isdisjoint(
        {"unique", "split", "return_inverse"}
    )
    assert _calls_to("_moebius_terms", census_tree) == ["_coprime_counts"]
    assert _calls_to("_coprime_counts", census_tree) == ["psi_coprime"]
    assert _calls_to("_coprime_counts", ast.parse(sources["experiments.py"])) == ["ft_ratio_scan"]
