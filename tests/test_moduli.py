"""Differential property tests for the per-modulus counts.

The Moebius split of T, the progression discrepancy and the coprime-count
ratios come from residue counts over the smooth values.  They are checked
here against the factoring oracles in conftest, which share no code
with the package.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import (
    DomainError,
    ft_ratio_scan,
    granville_discrepancy,
    psi,
    psi_coprime,
    psi_progression,
    t_via_mobius,
)

from conftest import oracle_discrepancy, oracle_mobius_split, oracle_phi, oracle_smooth_list

YS = st.sampled_from([2, 3, 7, 30, 1e3])
SHIFTS = st.sampled_from([1, -1, 2, -2, 6, -6])
SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def split_cases(draw):
    x = draw(st.integers(1, 2000))
    return x, draw(YS), draw(SHIFTS), draw(st.sampled_from([1, 2.5, 17, x]))


@SETTINGS
@given(split_cases())
def test_mobius_split_matches_oracle_property(case):
    x, y, a, delta = case
    s1, s2 = oracle_mobius_split(x, y, a, delta)
    split = t_via_mobius(x, y, a, delta)
    assert split.sigma1 == pytest.approx(float(s1), abs=1e-12)
    assert split.sigma2 == pytest.approx(float(s2), abs=1e-12)


@st.composite
def discrepancy_cases(draw):
    x = draw(st.integers(1, 2000)) + draw(st.sampled_from([0, 0.5]))
    delta = draw(st.sampled_from([1, 2.5, 17, None]))
    if delta is None:  # every modulus up to x: keep the oracle's loops small
        x = min(x, 150)
        delta = x
    return x, draw(YS), delta, draw(st.sampled_from(["fixed_x", "max_over_grid"]))


@SETTINGS
@given(discrepancy_cases())
def test_discrepancy_matches_oracle(case):
    x, y, delta, z_mode = case
    report = granville_discrepancy(x, y, delta, z_mode)
    z_values, rows = oracle_discrepancy(x, y, delta, z_mode)
    assert list(report.z_values) == z_values
    assert [r.d for r in report.rows] == [d for d, _dev in rows]
    for row, (_d, dev) in zip(report.rows, rows):
        assert row.deviation == pytest.approx(float(dev), abs=1e-12)
    assert report.total_over_psi * len(oracle_smooth_list(0, math.floor(x), y)) == (
        pytest.approx(report.total, rel=1e-15)
    )


MODULI = st.one_of(st.integers(1, 10**7), st.sampled_from([2310, 30030, 10**12]))


@SETTINGS
@given(st.integers(1, 2000), YS, st.lists(MODULI, min_size=1, max_size=4))
def test_ft_ratios_match_oracle_counts(x, y, ds):
    smooth = oracle_smooth_list(0, x, y)
    rows = ft_ratio_scan(x, y, ds)
    assert [r.d for r in rows] == sorted(ds)
    for r in rows:
        coprime = sum(1 for n in smooth if math.gcd(n, r.d) == 1)
        assert r.ratio == coprime * r.d / (oracle_phi(r.d) * len(smooth))


def test_ft_ratio_memory_does_not_grow_with_the_modulus():
    # phi(d) takes the primes up to sqrt(d) one stream segment at a time; a
    # prime table up to 2^26 built in one piece peaked at 124 MiB here.
    # 2^52 - 47 is prime, so it runs the whole stream.
    prime = 2**52 - 47
    tracemalloc.start()
    try:
        rows = ft_ratio_scan(1e5, 30, [2**52 - 1, prime])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    count = psi(1e5, 30)
    assert rows[0].ratio == count * prime / ((prime - 1) * count)


def test_lemma_scale_is_nan_where_log_y_vanishes():
    rows = ft_ratio_scan(100, 1, [2, 30])
    assert [r.ratio for r in rows] == [2 / 1, 30 / 8]  # only n = 1 is 1-smooth
    assert all(math.isnan(r.lemma_scale) for r in rows)


def test_counts_with_moduli_above_int64():
    assert psi_progression(0, 100, 7, 1, 2**70) == 1
    assert psi_progression(0, 100, 7, 2**70 + 5, 2**70) == 1
    assert psi_coprime(100, 7, 2**70) == len(
        [n for n in oracle_smooth_list(0, 100, 7) if n % 2]
    )


@pytest.mark.parametrize(
    "fn, args",
    [
        (t_via_mobius, (math.nan, 30, 1, 5)),
        (t_via_mobius, (math.inf, 30, 1, 5)),
        (t_via_mobius, (-math.inf, 30, 1, 5)),
        (t_via_mobius, (1000, 30, 1, math.nan)),
        (granville_discrepancy, (math.nan, 30, 5)),
        (granville_discrepancy, (math.inf, 30, 5)),
        (granville_discrepancy, (1000, 30, math.nan)),
        (ft_ratio_scan, (math.nan, 30, [2])),
        (ft_ratio_scan, (math.inf, 30, [2])),
        (ft_ratio_scan, (1000, 30, [2, 2**52 + 1])),
    ],
)
def test_non_finite_or_too_large_inputs_are_rejected(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
