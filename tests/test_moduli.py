"""Differential property tests for the per-modulus counts.

The Moebius split of T and the progression discrepancy come from residue
counts over the smooth values, and the coprime-count ratios from the
quotient count of psi at x / e for the squarefree e of each modulus.  They
are checked here against the factoring oracles in conftest, which share no
code with the package, and the discrepancy and ratio floats are pinned bit for
bit against a plain-Python reference that does the same integer counts and
the same divisions without numpy.
"""

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import (
    CapacityError,
    DomainError,
    SmoothlabError,
    SmoothRange,
    census,
    experiments,
    ft_ratio_scan,
    granville_discrepancy,
    psi,
    psi_coprime,
    psi_progression,
    sieve,
    t_via_mobius,
)

from conftest import (
    oracle_discrepancy, oracle_mobius_split, oracle_phi, oracle_smooth_list, stream_segment,
)

YS = st.sampled_from([2, 3, 7, 30, 1e3])
SHIFTS = st.sampled_from([1, -1, 2, -2, 6, -6])
SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def split_cases(draw):
    x = draw(st.integers(1, 2000))
    delta = draw(st.sampled_from([1, 2.5, 17, x]))
    return x, draw(YS), draw(SHIFTS), delta, draw(st.sampled_from([7, 64, None]))


@SETTINGS
@given(split_cases())
def test_mobius_split_matches_oracle_property(case):
    x, y, a, delta, segment = case
    s1, s2 = oracle_mobius_split(x, y, a, delta)
    split = t_via_mobius(x, y, a, delta)
    assert split.sigma1 == pytest.approx(float(s1), abs=1e-12)
    assert split.sigma2 == pytest.approx(float(s2), abs=1e-12)
    # Segments of moduli below, across and above sqrt(floor(x) - a) give the same sums.
    with stream_segment(segment or sieve.STREAM_SEGMENT):
        cut = t_via_mobius(x, y, a, delta)
    assert (cut.sigma1.hex(), cut.sigma2.hex()) == (split.sigma1.hex(), split.sigma2.hex())


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


def float_discrepancy(x: float, y: float, delta: float, z_mode: str):
    """(rows, total, total / psi) of the discrepancy in plain Python floats.

    The same integer counts, the same int / int share per z, the same
    |count - share| and the same fsum as the package, over lists.
    """
    z_values = [x]
    if z_mode == "max_over_grid":
        while z_values[-1] / 2.0**0.25 >= 16.0:
            z_values.append(z_values[-1] / 2.0**0.25)
        z_values.reverse()
    smooth = oracle_smooth_list(0, math.floor(x), y)
    rows = []
    for d in range(1, math.floor(min(delta, x)) + 1):
        coprime = [a for a in range(d) if math.gcd(a, d) == 1]
        counts = [0] * d
        seen = 0
        worst = 0.0
        for z in z_values:
            while seen < len(smooth) and smooth[seen] <= z:
                counts[smooth[seen] % d] += 1
                seen += 1
            share = sum(counts[a] for a in coprime) / len(coprime)
            worst = max([worst] + [abs(counts[a] - share) for a in coprime])
        rows.append(worst)
    total = math.fsum(rows)
    return rows, total, total / len(smooth)


def assert_discrepancy_bits(x, y, delta, z_mode):
    report = granville_discrepancy(x, y, delta, z_mode)
    rows, total, total_over_psi = float_discrepancy(x, y, delta, z_mode)
    assert [r.deviation.hex() for r in report.rows] == [v.hex() for v in rows]
    assert report.total.hex() == total.hex()
    assert report.total_over_psi.hex() == total_over_psi.hex()


#: The block size of the package, one slice per block, and several blocks of several slices.
BLOCKS = [experiments._COUNT_BLOCK, 1, 40]


@SETTINGS
@given(discrepancy_cases(), st.sampled_from(BLOCKS))
def test_discrepancy_bits_match_float_reference(case, block):
    with patch.object(experiments, "_COUNT_BLOCK", block):
        assert_discrepancy_bits(*case)


@pytest.mark.parametrize("z_mode", ["fixed_x", "max_over_grid"])
@pytest.mark.parametrize(
    "x, y, delta",
    [
        (150.5, 3, 150.5),  # delta = x: the 3-smooth values stop at 144 < d
        (150, 7, 150),  # 150 itself is 7-smooth
        (97, 1, 97),  # only n = 1
        (1000.5, 30, 40),
        (2000, math.inf, 17),
    ],
)
@pytest.mark.parametrize("block", BLOCKS)
def test_discrepancy_bits_on_fixed_cases(x, y, delta, z_mode, block):
    # With blocks of 40 counts, every d > 3 on the grid (12 or more z
    # slices) spans several blocks, and every d > 20 one slice per block.
    with patch.object(experiments, "_COUNT_BLOCK", block):
        assert_discrepancy_bits(x, y, delta, z_mode)


def test_discrepancy_running_sum_spans_blocks_at_the_package_size():
    # At x = 3e4 the grid has 44 z, so every d > 372 of the 400 spans
    # several blocks of the package's own size; the running sum goes row
    # by row and carries the last row of one block into the next.
    assert 373 * 44 > experiments._COUNT_BLOCK
    assert_discrepancy_bits(3e4, 1e3, 400, "max_over_grid")


def test_discrepancy_memory_does_not_grow_with_delta():
    # The (z slice, residue) counts are built in blocks of _COUNT_BLOCK; at
    # x = 3e4 the 44 slices of every d > 372 span several blocks.  Whole
    # matrices peak at 2.5 MiB for delta = 1500 (4.8 MiB at 3000, linear in
    # delta); blocks keep the peak at 1.0 MiB (1.2 MiB at 3000).  delta = x
    # = 3e4 is left out: the work grows as delta^2, to minutes there.
    tracemalloc.start()
    try:
        report = granville_discrepancy(3e4, 1e3, 1500, "max_over_grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.z_values) == 44
    assert peak < 1.5 * 2**20


def whole_set_discrepancy(x: float, y: float, delta: float, z_mode: str):
    """(row deviations, total) with one bincount per block over the whole smooth set.

    The computation as it stood before the values were read in chunks: int32
    labels of every value, and the residues of the whole set per d.
    """
    report = granville_discrepancy(x, y, delta, z_mode)  # for the z grid and the clamped delta
    values = np.concatenate(list(census._segment_values(0, math.floor(x), y)))
    ends = np.searchsorted(values, [math.floor(z) for z in report.z_values], side="right")
    slices = np.repeat(np.arange(ends.size, dtype=values.dtype), np.diff(ends, prepend=0))
    rows = []
    for d in range(1, math.floor(report.delta) + 1):
        residues = values % d
        coprime = np.flatnonzero(np.gcd(np.arange(d), d) == 1)
        step = max(1, experiments._COUNT_BLOCK // d)
        below = np.zeros(d, dtype=np.int64)
        worst = 0.0
        for first in range(0, ends.size, step):
            last = min(first + step, ends.size)
            start, stop = ends[first - 1] if first else 0, ends[last - 1]
            keys = (slices[start:stop] - first) * d + residues[start:stop]
            counts = np.bincount(keys, minlength=(last - first) * d).reshape(-1, d)
            np.cumsum(counts, axis=0, out=counts)
            counts += below
            below = counts[-1]
            in_class = np.take(counts, coprime, axis=1)
            shares = in_class.sum(axis=1) / coprime.size
            worst = max(worst, float(np.abs(in_class - shares[:, None]).max()))
        rows.append(worst)
    return [v.hex() for v in rows], math.fsum(rows).hex()


@pytest.mark.parametrize("z_mode", ["fixed_x", "max_over_grid"])
@pytest.mark.parametrize(
    "x, y, delta",
    [
        (600000.5, 7, 25),  # three segments of 2^18, few smooth n
        (1e6, 100, 30),
        (7e5, 1e9, 12),  # every n smooth: the values fill 3 segments
    ],
)
def test_discrepancy_rows_in_chunks_match_the_whole_set_bincount(x, y, delta, z_mode):
    # With chunks of 1000 values and blocks of 40 counts, every block spans
    # several chunks, the last chunk of each block is partial, and on the
    # grid every d > 1 spans several blocks.  The package's sizes take each
    # block of the pool's requests in one chunk.
    want = whole_set_discrepancy(x, y, delta, z_mode)
    for chunk, block in ((1000, 40), (experiments._VALUE_CHUNK, experiments._COUNT_BLOCK)):
        with (
            patch.object(experiments, "_VALUE_CHUNK", chunk),
            patch.object(experiments, "_COUNT_BLOCK", block),
        ):
            report = granville_discrepancy(x, y, delta, z_mode)
        assert ([r.deviation.hex() for r in report.rows], report.total.hex()) == want


@pytest.mark.parametrize("z_mode, label_bytes", [("fixed_x", 0), ("max_over_grid", 1)])
def test_discrepancy_holds_four_bytes_per_smooth_n_at_the_largest_span(z_mode, label_bytes):
    # The largest admitted x, with the span patched down to 2^20 and every n
    # smooth: the int32 values, one 1-byte slice label per value on the
    # grid, and temporaries of a few 2^14-entry segments and 2^12-value
    # chunks.  The whole set's int32 labels, residues and keys and
    # bincount's int64 copy of the keys peaked at about 23 bytes per n, and
    # the z cuts searched as a list of Python ints cast the values to int64
    # (8 more).
    span = 1 << 20
    with (
        patch.object(census, "MAX_MATERIALIZED_SPAN", span),
        patch.object(experiments, "_VALUE_CHUNK", 1 << 12),
        stream_segment(1 << 14),
    ):
        with pytest.raises(CapacityError, match=r"range \[1, 1048577\] too large to materialize"):
            granville_discrepancy(span + 1, 1e9, 3, z_mode)
        tracemalloc.start()
        try:
            report = granville_discrepancy(span, 1e9, 3, z_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.total_over_psi * span == report.total
    assert peak <= (4 + label_bytes) * span + 2**20


@pytest.mark.parametrize("off", [-1, 1])
def test_a_smooth_set_that_does_not_fill_psi_raises(off):
    # The set is sized from the quotient count and filled segment by segment
    # from the sieve; a count off by one either way is caught at the fill.
    psi_value = census.psi

    def wrong(x, y):
        return psi_value(x, y) + off

    with stream_segment(1000), patch.object(census, "psi", wrong):
        with pytest.raises(SmoothlabError, match=r"not find the Psi\(5000, 30\) = \d+ smooth n"):
            granville_discrepancy(5000, 30, 3)
        granville_discrepancy(1000, 30, 3)  # one segment is returned as it is, and counts no psi


def float_ft_rows(x: float, y: float, ds):
    """(d, ratio.hex(), dev.hex()) per modulus in plain Python: the same ints, the same division."""
    smooth = oracle_smooth_list(0, math.floor(x), y)
    rows = []
    for d in sorted(ds):
        coprime = sum(1 for n in smooth if math.gcd(n, d) == 1)
        ratio = coprime * d / (oracle_phi(d) * len(smooth))
        rows.append((d, ratio.hex(), abs(ratio - 1.0).hex()))
    return rows


@pytest.mark.parametrize("x", [1, 97.5, 1000, 12345.5])
@pytest.mark.parametrize("y", [1, 2, 30, math.inf])
def test_ft_ratio_bits_match_float_reference(x, y):
    # 2^31 - 1, 10^12 and 2^52 - 1 exceed every value.
    ds = [1, 2, 6, 30, 2310, 30030, 97 * 89, 2**31 - 1, 10**12, 2**52 - 1]
    rows = ft_ratio_scan(x, y, ds)
    assert [(r.d, r.ratio.hex(), r.dev.hex()) for r in rows] == float_ft_rows(x, y, ds)


def test_ft_ratio_memory_stays_below_one_smooth_set():
    # 45 moduli p * q over consecutive primes up to 199 read the quotient
    # count at 92 values of e.  Divisibility masks over the whole smooth set
    # peaked at 6.8 times values.nbytes, a bounded memo of them at 2.25
    # times and the segment stream at 1.4 times; the quotient count holds
    # tables of 2 sqrt(x) entries and no smooth value.
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    ds = [p * q for p, q in zip(primes, primes[1:])]
    values = SmoothRange(1, 10**6, 1e3).values
    tracemalloc.start()
    try:
        rows = ft_ratio_scan(1e6, 1e3, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * values.nbytes
    for r, p, q in zip(rows, primes, primes[1:]):
        coprime = int(np.count_nonzero(np.gcd(values, r.d) == 1))
        assert r.ratio == coprime * r.d / ((p - 1) * (q - 1) * values.size)


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


def test_ft_ratio_memory_does_not_grow_with_x():
    # The ratios hold no smooth n, only the quotient tables of 2 sqrt(x)
    # entries; one materialized smooth set peaked at 4.6 and 13.5 MiB.
    ds = [2, 3, 5, 6, 7, 10, 30, 210, 2310]
    for x in (1e6, 4e6):
        tracemalloc.start()
        try:
            ft_ratio_scan(x, 1e3, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, x


def test_ft_ratio_memory_does_not_grow_with_the_modulus():
    # phi(d) takes the primes up to sqrt(d) one stream segment at a time; a
    # prime table up to 2^26 built in one piece peaked at 124 MiB here.
    # 2^52 - 47 is prime, which Miller-Rabin settles after the first
    # segment; test_kernels walks the whole stream with two large primes.
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


def test_a_repeated_modulus_gives_its_row_for_each_copy():
    # The quotient count took one step per copy of a repeated term above y;
    # now it takes one per distinct term and writes it to every copy.
    p13 = math.prod(sieve.primes_upto(41).tolist())

    def bits(rows):
        return [(r.d, r.ratio.hex(), r.dev.hex(), r.lemma_scale.hex()) for r in rows]

    assert bits(ft_ratio_scan(1e9, 1e5, [p13] * 20)) == bits(ft_ratio_scan(1e9, 1e5, [p13])) * 20


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
