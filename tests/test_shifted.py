import math
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import (
    AccuracyError,
    CapacityError,
    DomainError,
    SmoothRange,
    ZETA2_INV,
    aux_averages,
    build_rho_table,
    i_integral,
    main_terms,
    psi,
    rho,
    shifted,
    sieve,
    t_exact,
    t_via_mobius,
    v_exact,
    v_via_abel,
)

from smoothlab.shifted import (
    _EXACT_UNIT, _exact_int, _int_sum, _multiple_counts, _round_exact, _shifted_totals,
)

from conftest import (
    forced_route, minor_faults, oracle_mobius_split, oracle_mu, oracle_t, oracle_t_float,
    oracle_totient_sum, oracle_v, read_block, stream_segment,
)

SMALL_GRID = [
    (x, y, a)
    for x in (10, 100, 1000)
    for y in (3, 7, 19, 97)
    for a in (-3, -1, 1, 2, 6)
]


def test_t_exact_spec_examples():
    assert t_exact(10, 3, 1) == pytest.approx(454 / 105, rel=1e-14)
    assert oracle_t(10, 3, 1) == Fraction(454, 105)
    # brute-force oracle pins the negative-shift case; the sum is
    # 1/2 + 2/3 + 1/2 + 4/5 + 6/7 + 2/3 + 2/5
    assert oracle_t(10, 3, -1) == Fraction(461, 105)
    assert t_exact(10, 3, -1) == pytest.approx(461 / 105, rel=1e-14)
    assert t_exact(5, 3, 7) == 0.0
    assert t_exact(7, 7, 7) == 0.0  # range (7, 7] is empty


def test_t_exact_matches_oracle_grid():
    for x, y, a in SMALL_GRID:
        expected = oracle_t(x, y, a)
        got = t_exact(x, y, a)
        assert got == pytest.approx(float(expected), rel=1e-12), (x, y, a)
        assert got.hex() == oracle_t_float(x, y, a).hex(), (x, y, a)


LARGE_T_POINTS = ((10**4, 19, 1), (10**4, 97, -3), (5000, 7, 2))


def test_t_float_within_1e12_of_rational():
    for x, y, a in LARGE_T_POINTS:
        exact = oracle_t(x, y, a)
        assert abs(t_exact(x, y, a) - float(exact)) <= 1e-12 * float(exact)


@pytest.mark.parametrize("x, y, a", LARGE_T_POINTS, ids=["1e4-19-1", "1e4-97-minus3", "5000-7-2"])
def test_t_is_the_correctly_rounded_sum_at_large_x_on_both_routes(x, y, a):
    want = oracle_t_float(x, y, a).hex()
    for route in ("sieve", "generated"):
        with forced_route(route) as calls:
            assert t_exact(x, y, a).hex() == want, route
        assert calls, route


@pytest.mark.parametrize("route", ["sieve", "generated"])
@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3000),
    st.sampled_from([1, 1.5, 2, 3, 7, 30, 97, math.inf]),
    st.integers(-40, 40).filter(bool),
)
def test_t_is_the_correctly_rounded_sum_on_both_routes(route, x, y, a):
    # T and the split's T on the route, bit for bit against the oracle's
    # fsum of its own rounded terms: this pins _exact_int and _round_exact.
    want = oracle_t_float(x, y, a).hex()
    # The sieve reads in blocks of 7 entries, so window edges fall inside segments.
    with forced_route(route) as calls, read_block(7) if route == "sieve" else nullcontext():
        assert t_exact(x, y, a).hex() == want
        for delta in (1, 10, x):
            assert t_via_mobius(x, y, a, delta).t.hex() == want, delta
    assert calls or x <= max(a, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3000),
    st.sampled_from([1, 1.5, 2, 3, 7, 30, 97, math.inf]),
    st.integers(-40, 40).filter(bool),
    st.sampled_from([1, 10, math.inf]),
)
# One generated window holds every smooth n: its k = n - a span three
# packs of 2^17 k, where the sieve's windows span a few hundred.
@example(300_000, 7, 1, 10)
@example(300_000, 7, -3, math.inf)
def test_the_whole_split_is_the_same_on_both_routes(x, y, a, delta):
    # sigma1, sigma2, T and the count, bit for bit, whether the T pass
    # sieves in blocks of 7 entries or generates its smooth n; the count
    # is that of psi's quotient count, which shares no code with the pass.
    splits = []
    for route in ("sieve", "generated"):
        with forced_route(route), read_block(7):
            split = t_via_mobius(x, y, a, delta)
        splits.append((split.sigma1.hex(), split.sigma2.hex(), split.t.hex(), split.count))
    assert splits[0] == splits[1]
    assert splits[0][3] == psi(x, y) - (psi(min(x, a), y) if a > 0 else 0)


def test_t_exact_streaming_matches():
    full = t_exact(20000, 19, 5)
    with stream_segment(777):
        chunked = t_exact(20000, 19, 5)
    assert chunked == pytest.approx(full, rel=1e-13)


def test_t_exact_counts_no_psi(monkeypatch):
    # t_exact once counted the head psi(min(x, a), y) of the shifted pass
    # and never read it: 0.39 s for the 100 terms of t_exact(2e7, 1e5, 19999900).
    calls = []
    monkeypatch.setattr(shifted, "psi", lambda *args: calls.append(args) or psi(*args))
    for x, y, a in ((2e6, 1e5, 1999900), (1000, 30.0, 6), (1000, 7.0, -3)):
        calls.clear()
        t = t_exact(x, y, a)
        assert calls == []
        assert t.hex() == _shifted_totals([x], y, [a])[0][0][1].hex()


def test_t_exact_memory_does_not_grow_with_x():
    # Terms stream into fsum segment by segment, so the peak stays near one
    # segment's arrays; holding every term at once would take several MB.
    tracemalloc.start()
    try:
        with stream_segment(1 << 12):
            t_exact(5e5, 1e5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_dense_pass_holds_one_strip_whatever_its_shifts():
    # One strip buffer per pass, reads per window of at most 2^14 smooth n:
    # the peak stays near one union strip (two int32 rows of about 2^18
    # entries), and a pass of three shifts holds no more.  Reading each
    # 2^18-entry segment whole peaked at 10.9 and 19.9 MiB, and a fresh
    # strip per segment at 2.94 and 3.30 MiB, the bounds here.
    assert sieve._generated_smooth(0, 4_600_000, 1e5, [1, 2, -1]) is None  # the sieve route
    runs = {
        2.94: lambda: t_exact(4.6e6, 1e5, 1),
        3.30: lambda: _shifted_totals([4.6e6], 1e5, [1, 2, -1]),
    }
    for bound, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


def test_a_warm_mask_route_pass_faults_no_page_in_per_segment():
    # A fresh mask strip and band strip per segment were trimmed back to the
    # system at each segment's end and faulted in again by the next: 5,815
    # faults over the 18 segments of this pass, warm.  The pass's buffers
    # are faulted in once.
    assert sieve._generated_smooth(0, 4_600_000, 1e3, [1]) is None  # the sieve route
    segments = len(list(sieve._PassContext(2, 4_600_000).segments()))
    want = t_exact(4.6e6, 1e3, 1)
    with minor_faults() as faults:
        got = t_exact(4.6e6, 1e3, 1)
    assert got.hex() == want.hex()
    assert faults.count < 100 * segments


@pytest.mark.parametrize(
    "y, sigma1, sigma2",
    [
        (30, "0x1.c9dae97e3740fp+14", "-0x1.706fc1a37e44fp+4"),
        (1e3, "0x1.47c571e88b64ap+20", "-0x1.650bfc2f0e5e4p+9"),
        (1e5, "0x1.08c576e499feap+22", "-0x1.19f53e6a4f57fp+11"),
    ],
)
def test_mobius_split_holds_one_byte_per_modulus(y, sigma1, sigma2):
    # The bool indicator of 1e7 moduli takes 9.5 MiB; the bound leaves room
    # for one segment of the T pass's windows, mu, counts and terms (the
    # peak is 14 to 19 MiB), not for an int32 indicator (38 MiB) or the
    # primes up to 1e7, which took the peak to 49-53 MiB.
    tracemalloc.start()
    try:
        split = t_via_mobius(1e7, y, 1, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (split.sigma1.hex(), split.sigma2.hex()) == (sigma1, sigma2)
    assert peak < 32 << 20


def test_the_split_sums_its_moduli_in_windows():
    # Summing a segment of moduli whole held an int32 weighted count, int64
    # moduli, float64 terms and their head and tail copies, all of the
    # segment's size: a peak of 4.29 MiB here, against 2.26 MiB for the T
    # pass alone.  In windows of 2^14 moduli the split peaks in its T pass,
    # which also holds the 1-byte indicator of the moduli.
    x, y, a, delta = 178943, 1e5, -1, 350
    peaks = []
    for run in (lambda: t_exact(x, y, a), lambda: t_via_mobius(x, y, a, delta)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    indicator = x - a + 1  # g.nbytes, the moduli 0..floor(x) - a
    assert peaks[1] <= peaks[0] + indicator + 2**18


def test_the_split_marks_its_k_in_units_of_2_17(monkeypatch):
    # The reducer packs each 2^17 k of a window on its own, and the merge
    # drops each pack, so no mark array outgrows a unit.  Packing the one
    # generated window of this pass whole made a bool array of all 2^22 k:
    # the T pass then peaked at 5.12 MiB, against 2.83 MiB in units.
    assert sieve._generated_smooth(1, 2**22, 30, [1]) is not None  # the generated route
    reduce_pass, peaks, packs = shifted._reduce_pass, [], []

    def measured(*args):
        tracemalloc.reset_peak()
        parts = reduce_pass(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        packs.extend(packed.size for _t, marks in parts for _first, packed in marks)
        return parts

    monkeypatch.setattr(shifted, "_reduce_pass", measured)
    tracemalloc.start()
    try:
        split = t_via_mobius(2**22, 30, 1, 10)
    finally:
        tracemalloc.stop()
    assert split.count == psi(2**22, 30) - 1
    assert len(peaks) == 1 and peaks[0] < 3.5 * 2**20
    assert 0 < max(packs) <= sieve._READ_BLOCK


def unwindowed_split(x: int, y: float, a: int, delta: float) -> tuple[float, float]:
    """(sigma1, sigma2) with each segment of moduli summed whole, as before the windows."""
    smooth = SmoothRange(max(a, 0) + 1, x, y).values
    g = np.zeros(x - a + 1, dtype=bool)
    g[smooth - a] = True
    sigma1 = sigma2 = 0
    context = sieve._PassContext(1, x - a)
    for s, e in context.segments():
        mu = sieve._mu_segment(s, e, context.primes(e))
        weighted = mu * _multiple_counts(g, s, e, mu)
        d = np.flatnonzero(weighted) + s
        terms = weighted[d - s] / d
        head = d <= delta
        sigma1 += _exact_int(terms[head])
        sigma2 += _exact_int(terms[~head])
    return _round_exact(sigma1), _round_exact(sigma2)


@pytest.mark.parametrize("route, y", [("generated", 30), ("sieve", 1e5)])
@pytest.mark.parametrize("segment", [None, 40000], ids=["one-segment", "segments-of-40000"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_split_cuts_each_window_at_delta_as_one_sum_does(route, y, segment, data):
    # A window of 2^14 moduli starts at ws; delta falls just below it, on
    # it, or on its last modulus, on both routes of the T pass and with
    # windows that restart at a segment's edge.
    x = data.draw(st.integers(3 * 2**14, 4 * 2**14), label="x")
    a = data.draw(st.sampled_from([1, -1, 2, 6, -5]), label="a")
    assert (sieve._generated_smooth(max(a, 0), x, y, [a]) is None) == (route == "sieve")
    with stream_segment(segment or sieve.STREAM_SEGMENT):
        context = sieve._PassContext(1, x - a)
        starts = [ws for s, e in context.segments() for ws in range(s, e + 1, 2**14)]
        ws = data.draw(st.sampled_from(starts), label="ws")
        edge = data.draw(st.sampled_from([-1, 0, 2**14 - 1]), label="edge")
        delta = max(1, ws + edge) + data.draw(st.sampled_from([0, 0.5]), label="fraction")
        split = t_via_mobius(x, y, a, delta)
        want = unwindowed_split(x, y, a, delta)
    assert (split.sigma1.hex(), split.sigma2.hex()) == tuple(v.hex() for v in want)


def test_mobius_split_refuses_too_many_moduli_before_it_allocates(smooth_mask_entries):
    # The moduli run to floor(x) - a: a shift of -2^40 once asked primes_upto for 1 TiB.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"moduli \[1, 1099511627786\] too large"):
            t_via_mobius(10, 30, -(2**40), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert smooth_mask_entries == []


def test_mobius_moduli_stop_at_x_minus_a():
    # A positive shift near 2^40 leaves 200 moduli; they once ran to x.
    x, a, y = 2**40 + 100, 2**40 - 100, 1e5
    tracemalloc.start()
    try:
        split = t_via_mobius(x, y, a, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    t = float(oracle_t(x, y, a))
    assert t > 1 and split.sigma2 == 0.0
    assert split.sigma1 == pytest.approx(t, rel=1e-12)
    assert t_via_mobius(x, y, a, 10).total == pytest.approx(t, rel=1e-12)
    assert t_via_mobius(2**40 + 100, 30, 2**40, 5).total == float(oracle_t(2**40 + 100, 30, 2**40))
    # Small twins, against the oracle whose moduli run to x.
    for k in (10, 12):
        for delta in (5, 60, math.inf):
            s1, s2 = oracle_mobius_split(2**k + 100, 30, 2**k, delta)
            split = t_via_mobius(2**k + 100, 30, 2**k, delta)
            assert split.sigma1 == pytest.approx(float(s1), abs=1e-12)
            assert split.sigma2 == pytest.approx(float(s2), abs=1e-12)


def test_t_domain_errors(smooth_mask_entries):
    with pytest.raises(DomainError):
        t_exact(10, 3, 0)
    with pytest.raises(DomainError):
        t_via_mobius(10, 3, 1, 0.5)
    for fn in (t_exact, v_exact, v_via_abel, aux_averages):
        for y in (math.nan, 0.5):
            with pytest.raises(DomainError):
                fn(10, y, 1)
        for x in (math.nan, math.inf, 2.0**52 + 2):
            with pytest.raises(DomainError):
                fn(x, 3, 1)
        with pytest.raises(DomainError):
            fn(0.5, 3, 1)
        # n - a past 2^52 is refused before the smoothness mask, not in the totient kernel
        with pytest.raises(DomainError, match=r"hi=4503599627370596 exceeds supported bound 2\^52"):
            fn(100, 30, -(2**52))
    assert smooth_mask_entries == []


def test_range_bounds_property():
    for x, y, a in SMALL_GRID:
        t = t_exact(x, y, a)
        if math.floor(x) > max(a, 0):
            # each term is phi(m)/m <= 1, so T is below the term count
            assert 0.0 < t <= psi(x, y)
        v = v_exact(x, y, a)
        assert 0.0 <= v <= x


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("n", [2, 3, 97, 4, 97**2, 1000, 4096, 4999])
def test_multiple_counts_match_brute_force(n, block):
    # n prime, n = p^2 and n up to a few thousand; blocks of 7 moduli fall
    # below sqrt(n), across it and above it.  Counts at a d with mu(d) = 0
    # are not defined, so only the squarefree d are compared.
    rng = np.random.default_rng(n)
    for density in (0.05, 0.5, 1.0):
        g = rng.random(n + 1) < density
        g[0] = False
        got = []
        with stream_segment(block or sieve.STREAM_SEGMENT):
            context = sieve._PassContext(1, n)
            for s, e in context.segments():
                mu = sieve._mu_segment(s, e, context.primes(e))
                counts = _multiple_counts(g, s, e, mu)
                got += [int(counts[d - s]) for d in range(s, e + 1) if oracle_mu(d)]
        assert got == [int(g[d::d].sum()) for d in range(1, n + 1) if oracle_mu(d)]


def test_mobius_split_asks_for_no_primes_above_the_root_of_its_moduli(monkeypatch):
    # The split once sieved every prime up to its last modulus d_max for an
    # in-place sum over multiples; counting the multiples needs only mu.
    asked = []
    primes_upto = sieve.primes_upto

    def recording(n):
        asked.append(n)
        return primes_upto(n)

    monkeypatch.setattr(sieve, "primes_upto", recording)
    assert not hasattr(shifted, "primes_upto")
    for x, a in ((20001, 1), (20000, -3)):
        asked.clear()
        split = t_via_mobius(x, 1e3, a, 100)
        assert split.total == pytest.approx(split.t, rel=1e-12)
        assert asked and max(asked) <= math.isqrt(x - a)


def test_mobius_split_delta2_example():
    # frozen from the brute-force oracle run: sigma1 = 5, sigma2 = -71/105
    s1, s2 = oracle_mobius_split(10, 3, 1, 2)
    assert (s1, s2) == (Fraction(5), Fraction(-71, 105))
    split = t_via_mobius(10, 3, 1, 2)
    assert split.sigma1 == pytest.approx(5.0, abs=1e-12)
    assert split.sigma2 == pytest.approx(-71 / 105, abs=1e-12)
    assert split.total == pytest.approx(454 / 105, rel=1e-12)
    assert (split.sigma1, split.sigma2) == (float(s1), float(s2))


def test_mobius_identity_full_cutoff():
    for x, y, a in SMALL_GRID:
        t = t_exact(x, y, a)
        split = t_via_mobius(x, y, a, x)
        assert abs(split.total - t) <= 1e-9 * (1.0 + abs(t)), (x, y, a)


def test_mobius_tail_empty_at_full_cutoff_positive_shift():
    split = t_via_mobius(100, 7, 3, 100)
    assert split.sigma2 == 0.0


def test_mobius_split_matches_oracle():
    for x, y, a, delta in ((50, 3, 1, 7), (100, 7, -2, 10), (60, 5, 2, 60)):
        s1, s2 = oracle_mobius_split(x, y, a, delta)
        split = t_via_mobius(x, y, a, delta)
        assert split.sigma1 == pytest.approx(float(s1), abs=1e-12)
        assert split.sigma2 == pytest.approx(float(s2), abs=1e-12)


def test_sigma2_truncation_bound():
    x = 10**4
    for delta in (10, 100, 1000):
        split = t_via_mobius(x, 19, 1, delta)
        assert abs(split.sigma2) <= 2 * x / delta


def test_v_exact_examples():
    assert v_exact(10, 3, 1) == pytest.approx(18 / 7, rel=1e-14)
    assert v_exact(10, 3, 1) == float(Fraction(18, 7))  # one exactly rounded division
    assert v_exact(10, 2, 1) == pytest.approx(9 / 4, rel=1e-14)
    assert v_exact(5, 3, 7) == 0.0


def test_int_sum_is_exact_past_int64():
    # 4096 totients of 2^52 - 1 sum to 2^64 - 2^12, which wraps in int64.
    top = 2**52 - 1
    values = np.full(4096, top, dtype=np.int64)
    assert _int_sum(values, top) == 4096 * top
    assert int(values.sum()) != 4096 * top
    small = np.arange(1, 2**18 + 1, dtype=np.int64)
    assert _int_sum(small, 2**18) == 2**17 * (2**18 + 1)


def test_v_exact_matches_oracle_grid():
    for x, y, a in SMALL_GRID:
        assert v_exact(x, y, a) == float(oracle_v(x, y, a)), (x, y, a)


@pytest.mark.parametrize("x, a", [(1e6, 1), (1e6, -5), (1e7, 3), (3e7, 1)])
def test_v_at_y_inf_matches_the_summatory_totient(x, a):
    # At y = inf every n counts: Psi = floor(x), and V's numerator is
    # Phi(floor(x) - a) - Phi(max(-a, 0)), one exactly rounded division.
    top = math.floor(x)
    want = (oracle_totient_sum(top - a) - oracle_totient_sum(max(-a, 0))) / top
    assert v_exact(x, math.inf, a).hex() == want.hex()


def test_abel_identity():
    for x, y, a in SMALL_GRID:
        ve = v_exact(x, y, a)
        va = v_via_abel(x, y, a)
        assert abs(va - ve) <= 1e-9 * (1.0 + abs(ve)), (x, y, a)


def test_abel_negative_shift_and_fractional_x():
    assert v_via_abel(10, 3, -2) == pytest.approx(v_exact(10, 3, -2), rel=1e-12)
    assert v_via_abel(10.5, 3, 1) == pytest.approx(v_exact(10.5, 3, 1), rel=1e-12)


def test_abel_streaming_matches():
    whole = v_via_abel(20000, 19, 3)
    with stream_segment(777):
        assert v_via_abel(20000, 19, 3) == whole


def test_abel_counts_psi_before_its_pass(strip_windows):
    # Psi(x, 1e6) past 1e12 is refused; the pass once stripped its first
    # part, about 2^21 entries, before the count raised.
    with pytest.raises(CapacityError, match=r"psi\(x=1000002000000, y=1e\+06\) needs about"):
        v_via_abel(1000002000000, 1e6, 1000000000000)
    assert strip_windows == []


def test_abel_reaches_the_generated_route():
    # The reference once filled every integer up to x: 3.8 million segments here.
    assert v_via_abel(1e12, 7, -3) == pytest.approx(v_exact(1e12, 7, -3), rel=1e-12)


def test_main_terms():
    mt = main_terms(1e6, 1e3, 306853)
    assert mt.zeta2_inv == pytest.approx(0.6079271019, abs=1e-10)
    assert mt.t_main == pytest.approx(306853 * 6 / math.pi**2, rel=1e-15)
    # numeric cross-check of the example magnitude
    assert mt.t_main == pytest.approx(186544.25, abs=0.5)
    assert mt.v_main == pytest.approx(3.0 * 1e6 / math.pi**2, rel=1e-15)
    assert main_terms(10, 3, 7).v_main == pytest.approx(30 / math.pi**2, rel=1e-15)
    assert mt.err_scale == pytest.approx(
        math.log(math.log(1e6)) * math.log(math.log(1e3)) / math.log(1e3), rel=1e-15
    )
    with pytest.raises(DomainError):
        main_terms(10, 3, 0)


@pytest.mark.parametrize(
    "x, y, psi_value",
    [
        (math.nan, 7, 5),
        (math.inf, 7, 5),
        (-math.inf, 7, 5),
        (100, math.nan, 5),
        (100, 7, math.nan),
        (100, 7, math.inf),
    ],
)
def test_main_terms_rejects_non_finite_inputs(x, y, psi_value):
    # nan used to pass through to a nan v_main, err_scale or t_main.
    with pytest.raises(DomainError):
        main_terms(x, y, psi_value)


def test_main_terms_err_scale_undefined_marker():
    assert math.isnan(main_terms(10, 2, 4).err_scale)
    assert math.isnan(main_terms(2, 2, 2).err_scale)
    assert not math.isnan(main_terms(10, 3, 7).err_scale)


def test_zeta2_inv_matches_series():
    # slowly converging reference sum with tail correction
    n = 200000
    partial = sum(1.0 / k**2 for k in range(n, 0, -1))
    zeta2 = partial + 1.0 / n  # tail of sum 1/k^2 is ~1/n
    assert ZETA2_INV == pytest.approx(1.0 / zeta2, rel=1e-9)


def test_i_integral_examples(rho_table):
    res = i_integral(100, 100, rho_table)
    assert res.value == pytest.approx((100.0**2 - 1.0) / 2.0, rel=1e-10)
    assert res.comparator == pytest.approx(5000.0, rel=1e-12)
    assert i_integral(1, 50, rho_table).value == 0.0
    with pytest.raises(DomainError, match="x >= 1, got 0.5"):
        i_integral(0.5, 50, rho_table)
    with pytest.raises(DomainError, match="y >= 2, got 1.5"):
        i_integral(100, 1.5, rho_table)
    with pytest.raises(DomainError):
        i_integral(2.0 ** (33 * 10), 2, rho_table)  # u beyond the table
    # x^2 overflows: refused, where these once gave value=nan, comparator=inf
    for x, y in ((1e200, 1e150), (1e170, 1e100), (math.inf, math.inf), (math.nan, 30)):
        with pytest.raises(DomainError):
            i_integral(x, y, rho_table)
    res = i_integral(1e6, math.inf, rho_table)  # y >= x: rho = 1 on the whole range
    assert res.value == (1e12 - 1) / 2
    assert res.error_estimate == 0


def test_i_integral_comparator_band(rho_table, monkeypatch):
    res = i_integral(1e6, 1e3, rho_table)
    assert 0.9 <= res.value / res.comparator <= 1.3
    assert res.error_estimate <= 1e-8 * abs(res.value)
    # With no error tolerated the value is refused, and carried as the estimate.
    monkeypatch.setattr(shifted, "_QUAD_REL_TOL", 0.0)
    with pytest.raises(AccuracyError) as refused:
        i_integral(1e6, 1e3, rho_table)
    assert refused.value.estimate == res.value


def _quad_reference(x, y, table):
    """The integral in t by scipy's adaptive quad, split at the powers of y."""
    from scipy.integrate import quad

    cuts = [1.0]
    while y ** len(cuts) < x:
        cuts.append(float(y ** len(cuts)))
    cuts.append(x)
    return math.fsum(
        quad(lambda t: t * rho(table, math.log(t) / math.log(y)), t0, t1,
             epsrel=1e-12, limit=200)[0]
        for t0, t1 in zip(cuts[:-1], cuts[1:])
    )


def test_i_integral_matches_quad_on_a_grid():
    # u from below 1 (the closed form) to 60.  At y = 1e5 every unit
    # interval is split into two parts, at y = 1e20 into six; one part per
    # unit would miss _QUAD_REL_TOL there.
    table = build_rho_table(u_max=64.0)
    points = [
        (x, y)
        for y in (2, 30, 1e3, 1e5)
        for x in (1e2, 1e4, 1e6, 1e9, 1e12, 1e15, 2.0**60)
    ] + [(1e60, 1e20)]
    assert any(math.log(x) <= math.log(y) for x, y in points)
    for x, y in points:
        res = i_integral(x, y, table)
        assert res.value == pytest.approx(_quad_reference(x, y, table), rel=1e-10), (x, y)


def test_aux_averages():
    got = aux_averages(10, 3, 1)
    assert got.tau_avg == pytest.approx(13 / 7, rel=1e-14)
    assert got.omega_avg == pytest.approx(5 / 7, rel=1e-14)
    assert aux_averages(5, 3, 7) == (0.0, 0.0)


@pytest.mark.parametrize("fn", [t_exact, v_exact, v_via_abel, aux_averages])
@pytest.mark.parametrize(
    "a, y",
    [
        pytest.param(7, 30, id="7"),
        pytest.param(-3, 30, id="-3"),
        pytest.param(7, 1e5, id="7-y1e5"),
        pytest.param(-3, 1e5, id="-3-y1e5"),
    ],
)
def test_shifted_sums_test_each_n_for_smoothness_once(fn, a, y, smooth_mask_entries):
    fn(20000.5, y, a)
    # Each tests only the n of its terms, in (max(a, 0), x]: the head psi of
    # the others, Psi(a, y), comes from the quotient count, which sieves nothing.
    assert sum(smooth_mask_entries) == 20000 - max(a, 0)


def test_a_warm_aux_averages_faults_no_page_in_per_segment():
    # Fresh tau, omega, ``before`` and part arrays per segment were trimmed
    # back to the system at each segment's end: 21,110 faults per warm call
    # over these 39 segments.  They are rows of one buffer of the pass now.
    segments = len(list(sieve._PassContext(2, 10**7).segments()))
    aux_averages(1e7, 30, 1)
    with minor_faults() as faults:
        got = aux_averages(1e7, 30, 1)
    assert (got.tau_avg.hex(), got.omega_avg.hex()) == (
        "0x1.0680389b2d552p+3", "0x1.2dc8f56b9ce98p+1",
    )
    assert faults.count < 100 * segments


def test_aux_averages_matches_oracle():
    from conftest import oracle_omega, oracle_smooth_list, oracle_tau

    for x, y, a in ((100, 7, 2), (300, 5, -3)):
        smooth = oracle_smooth_list(max(a, 0), x, y)
        count = len(oracle_smooth_list(0, x, y))
        tau_avg = sum(oracle_tau(n - a) for n in smooth) / count
        omega_avg = sum(oracle_omega(n - a) for n in smooth) / count
        got = aux_averages(x, y, a)
        assert got.tau_avg == pytest.approx(tau_avg, rel=1e-12)
        assert got.omega_avg == pytest.approx(omega_avg, rel=1e-12)


@pytest.mark.parametrize("xs", [[300.0, 10.0], [10.0, 300.0, 10.0, 300.0], [50.0, 50.0]])
def test_shifted_totals_refuses_xs_out_of_order(xs):
    with pytest.raises(DomainError, match="strictly increasing"):
        _shifted_totals(xs, 7.0, [1])


@st.composite
def shared_pass_cases(draw):
    """An x grid over several segments, a y, and up to 16 distinct shifts of both signs.

    The shifts run near 0, where one union window serves them, and out to
    several segments, where they go in bands and may start past some x.
    """
    top = draw(st.integers(1, 3000))
    xs = sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=4)) | {top})
    segment = draw(st.integers(max(1, top // 24), top + 10))
    near, far = st.integers(-40, 40), st.integers(-3 * top - 50, 3 * top + 50)
    shifts = draw(st.lists((near | far).filter(bool), min_size=1, max_size=16, unique=True))
    y = draw(st.sampled_from([2, 3, 7, 30, 100, 1e3, math.inf]))
    return xs, y, shifts, segment


@pytest.mark.parametrize("route", [None, "sieve", "generated"])
@settings(max_examples=40, deadline=None)
@given(shared_pass_cases())
def test_one_pass_serves_every_shift(route, case):
    xs, y, shifts, segment = case
    # The sieve reads in blocks of 7 entries, so window edges fall inside
    # segments, bands and the x cuts.
    forced = forced_route(route) if route else nullcontext([])
    blocks = read_block(7) if route == "sieve" else nullcontext()
    with stream_segment(segment), forced as calls, blocks:
        shared = _shifted_totals(xs, y, shifts)
        alone = [_shifted_totals(xs, y, [a])[0] for a in shifts]

    def hexed(per_shift):
        return [[(p, t.hex(), v.hex()) for p, t, v in rows] for rows in per_shift]

    assert hexed(shared) == hexed(alone)
    assert calls or not route or xs[-1] <= min(max(a, 0) for a in shifts)


def test_one_pass_keeps_the_sieve_route_values():
    # Psi, T and V of the sieve route at (1e8, 30) before the smooth n were
    # generated at small y, for both shifts from one pass.
    [[(psi_1, t_1, v_1)], [(psi_2, t_2, v_2)]] = _shifted_totals([1e8], 30, [1, -2])
    assert (psi_1, t_1.hex(), v_1.hex()) == (
        88415, "0x1.11c02fe72adfap+16", "0x1.4862d39851f9cp+24"
    )
    assert (psi_2, t_2.hex(), v_2.hex()) == (
        88415, "0x1.786924afdc580p+15", "0x1.b9dd9c841fe27p+23"
    )


def _fsum_hex(chunks):
    return math.fsum(v for chunk in chunks for v in chunk.tolist()).hex()


def _exact_sum(chunks):
    """The exact integers of the chunks, added and rounded once, as the passes do."""
    return _round_exact(sum(map(_exact_int, chunks)))


def _binade_terms(size: int, binades: int) -> np.ndarray:
    """size terms of random sign and full mantissa whose |values| span exactly ``binades`` binades.

    They lie in [2^(1 - binades), 2): ``_exact_int`` takes a slice of them
    in one band for 16 binades and in two bands for 17.
    """
    rng = np.random.default_rng(size * 100 + binades)
    exps = rng.integers(1 - binades, 1, size)
    exps[:2] = (1 - binades, 0)
    return rng.choice([-1.0, 1.0], size) * np.ldexp(1.0 + rng.random(size), exps)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)
        | st.sampled_from([1.0, -1.0, 2.0**-53, 5e-324, 0.1, -0.0]),
        max_size=300,
    ),
    st.lists(st.integers(0, 300), max_size=3),
)
def test_exact_sum_matches_fsum_on_random_arrays(values, cuts):
    chunks = np.split(np.array(values, dtype=np.float64), sorted(c % (len(values) + 1) for c in cuts))
    assert _exact_sum(chunks).hex() == _fsum_hex(chunks)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.0, 2.0**-53],  # a half-ulp tie rounds to even: down
        [1.0 + 2.0**-52, 2.0**-53],  # ... and up
        [1.0, 2.0**-53, 2.0**-160],  # just past the tie
        [1.0, -(2.0**-54), -(2.0**-107)],
        [1.0] * 5000,
        [0.1] * (1 << 22),  # many more equal terms than one slice
        [1e300, 1.0, -1e300, 5e-324, -2.5e-310, 3.0, 2.0**-1074 * 3],
        [2.0**k * (-1) ** k for k in range(-1074, 1000, 7)],
        [-0.0, 0.0, -0.0],
        [1.7e308, -1.7e308, 1.7e308, 1.0],  # binades above 1007
        [2.0**1023, -(2.0**1023), 1.5 * 2.0**1023, -1.0],
    ],
    ids=[
        "empty", "tie-even-down", "tie-even-up", "past-tie", "below-one", "ones",
        "2^22-equal", "cancel", "mixed-exponents", "zeros", "top-binade-cancel",
        "top-binade-power",
    ],
)
def test_exact_sum_matches_fsum_on_adversarial_arrays(values):
    chunks = [np.array(values, dtype=np.float64)]
    assert _exact_sum(chunks).hex() == _fsum_hex(chunks)
    assert _exact_sum(chunks[:0]) == 0.0


@pytest.mark.parametrize(
    "values",
    [
        _binade_terms(1 << 14, 16),
        _binade_terms((1 << 14) + 1, 16),
        _binade_terms(1 << 14, 17),
        _binade_terms((1 << 14) + 1, 17),
        [2.0 - 2.0**-52] * ((1 << 14) + 1),  # the largest sum of highs a split slice can make
        [5e-324 * k * (-1) ** k for k in range(1, 3000)],  # subnormals alone, split at one point
        [2.0**-1022, -5e-324, 2.0**-1030, 5e-324 * 3],
        [-0.0, 1.0, 0.0, -(2.0**-15), 0.75, -0.0],
        [1.7e308, -1.7e308, 1.7e308, 1.0],  # scaled down from the top binade
        [1.7e308, 5e-324, -1.7e308, 1e308, -(2.0**-1074) * 3],
    ],
    ids=[
        "16-binades-2^14", "16-binades-2^14+1", "17-binades-2^14", "17-binades-2^14+1",
        "near-two", "subnormals", "subnormals-and-normal", "signed-zeros", "top-binade",
        "top-and-bottom",
    ],
)
def test_exact_int_is_exact_on_both_sides_of_the_split_bound(values):
    # The rounded float hides a small error, so the integer itself is checked.
    chunk = np.array(values, dtype=np.float64)
    assert Fraction(_exact_int(chunk), _EXACT_UNIT) == sum(map(Fraction, chunk.tolist()))
    assert _exact_sum([chunk]).hex() == _fsum_hex([chunk])
