import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import (
    CapacityError,
    DomainError,
    SmoothRange,
    census,
    psi,
    psi_coprime,
    psi_enum_oracle,
    psi_progression,
    sieve,
)

from conftest import oracle_factorize, oracle_mu, oracle_smooth_list, stream_segment


def smooth_stream(lo: int, hi: int, y: float) -> list[int]:
    """The y-smooth n in (lo, hi] from the segment stream ``psi_progression`` reads."""
    return [n for values in census._segment_values(lo, hi, y) for n in values.tolist()]


def test_segment_values_examples():
    assert smooth_stream(0, 10, 3) == [1, 2, 3, 4, 6, 8, 9]
    assert smooth_stream(1, 10, 3) == [2, 3, 4, 6, 8, 9]
    assert smooth_stream(0, 10, 1.9) == [1]


def test_segment_values_match_oracle():
    rng = random.Random(3)
    for _ in range(25):
        lo = rng.randrange(0, 500)
        hi = lo + rng.randrange(1, 400)
        y = rng.choice([2, 3, 5.5, 7, 19, 97])
        assert smooth_stream(lo, hi, y) == oracle_smooth_list(lo, hi, y)


def test_segment_values_stream_across_segments():
    big = smooth_stream(0, 3000, 7)
    with stream_segment(100):
        small_cap = smooth_stream(0, 3000, 7)
    assert big == small_cap


def test_psi_examples():
    assert psi(10, 3) == 7
    assert psi(10, 2) == 4
    for n in (1, 2, 17, 100):
        assert psi(n, n) == n
    assert psi(10.9, 3) == psi(10, 3)


def test_psi_enum_oracle_examples():
    assert psi_enum_oracle(10, 3) == 7
    assert psi_enum_oracle(16, 2) == 5
    assert psi_enum_oracle(1, 19) == 1


def test_psi_enum_oracle_lists_primes_only_up_to_x():
    # It tested every m <= y against the primes found so far: y = inf never
    # returned, and (10, 3e5) took 21 s.
    start = time.perf_counter()
    assert psi_enum_oracle(1e5, math.inf) == 100_000
    assert psi_enum_oracle(10, 1e300) == 10
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (1, math.inf, 1),
        (1.5, 1.5, 1),
        (2, math.inf, 2),
        (10, 10, 10),
        (10, 10.5, 10),
        (97, 96.5, 96),  # y just below a prime x: all but x itself
        (97.5, 1e300, 97),
        (1000.5, math.inf, 1000),
        (10**4, 2 * 10**4, 10**4),
        (30030, 30030, 30030),
        (10**5, 3 * 10**5, 10**5),
        (3 * 10**5, math.inf, 3 * 10**5),
    ],
)
def test_psi_enum_oracle_matches_psi_with_y_near_or_past_x(x, y, expected):
    # Points the oracle could not reach while it tested every m <= y.
    assert psi_enum_oracle(x, y) == psi(x, y) == expected


def test_psi_equals_enum_oracle_grid():
    for x in (10, 100, 1000):
        for y in (2, 3, 5, 7, 19, 97):
            assert psi(x, y) == psi_enum_oracle(x, y), (x, y)


def sieved_psi(x: float, y: float) -> int:
    """Psi(x, y) from the sieve: the smooth n of each stream segment up to x, counted."""
    context = sieve._PassContext(1, math.floor(x))
    return sum(
        int(np.count_nonzero(sieve._smooth_mask(s, e, y, context))) for s, e in context.segments()
    )


def test_psi_matches_the_sieve_streamed_in_any_segment():
    whole = psi(10**4, 19)
    assert sieved_psi(10**4, 19) == whole
    with stream_segment(999):
        assert sieved_psi(10**4, 19) == whole


PRIMES = [2, 3, 5, 7, 11, 13, 29, 31, 97, 101, 997]


@st.composite
def quotient_points(draw):
    """x <= 1e6 (half-integers too), y in {1, 1.5, inf} or a prime p, p - 0.5 or p + 0.5."""
    x = draw(st.one_of(st.integers(1, 3000), st.integers(1, 10**6)))
    x += draw(st.sampled_from([0, 0.5]))
    p = draw(st.sampled_from(PRIMES))
    return x, draw(st.sampled_from([1, 1.5, math.inf] + 2 * [p, p - 0.5, p + 0.5]))


@settings(max_examples=40, deadline=None)
@given(quotient_points())
def test_quotient_count_matches_the_sieve_and_the_oracle(point):
    # y below sqrt(x) takes the Buchstab updates, y above Lucy's prime counts.
    x, y = point
    assert psi(x, y) == sieved_psi(x, y) == psi_enum_oracle(x, y), point


@pytest.mark.parametrize(
    "x, y",
    [
        (10**6, 31),  # Buchstab updates, y far below sqrt(x) = 1000
        (10**6, 999.5),  # Buchstab updates, floor(y) just below sqrt(x)
        (10**6, 1000),  # prime counts, floor(y) = sqrt(x)
        (999_999, 500),  # prime counts, pi(y) read from V(x)
        (5 * 10**5, 997),  # prime counts, pi(y) from a table of its own
    ],
)
def test_each_branch_of_the_quotient_count(x, y):
    assert psi(x, y) == sieved_psi(x, y) == psi_enum_oracle(x, y)


@pytest.mark.parametrize(
    "x, y, expected",
    [(1e9, 30, 193_571), (1e9, 100, 2_944_730), (1e10, 30, 399_341), (4e9, 30, 301_316)],
)
def test_psi_past_the_sieve_reach(x, y, expected):
    # Multiplying out the prime powers, and a memoized Buchstab recursion on
    # (m, k), gave these counts; the sieve took 4.9 s for the first.
    assert psi(x, y) == expected


#: pi(10^k) for k = 1..12, the published table (OEIS A006880).
PUBLISHED_PI = [
    4, 25, 168, 1_229, 9_592, 78_498, 664_579, 5_761_455, 50_847_534,
    455_052_511, 4_118_054_813, 37_607_912_018,
]


def test_prime_counts_match_the_published_table():
    # An outside reference for the prime counts of the quotient count's
    # large-y branch.  One table at 10^12 holds pi at every 10^k: small[v]
    # is pi(v) for v <= 10^6, and large[m] is pi(10^12 // m).
    small, large = census._prime_counts(10**12)
    assert [int(small[10**k]) for k in range(1, 7)] == PUBLISHED_PI[:6]
    assert [int(large[10 ** (12 - k)]) for k in range(6, 13)] == PUBLISHED_PI[5:]


#: The product of the first 13 primes, the most primes a modulus below 2^52 has.
PRIMORIAL_13 = 304_250_263_527_210


@pytest.mark.parametrize("x", [20000, 20000.5, 1000])
def test_psi_coprime_matches_gcd_counts(x):
    top = math.floor(x)
    largest = {n: max([p for p, _ in oracle_factorize(n)], default=1) for n in range(1, top + 1)}
    # y = 2..30 lie below sqrt(20000) (the Buchstab updates), 997 and 1e3 above it.
    for y in (1, 2, 13, 13.5, 17, 30, 997, 1e3, math.inf):
        smooth = [n for n, p in largest.items() if p <= y]
        for d in (30030, 510510, PRIMORIAL_13):
            coprime = sum(1 for n in smooth if math.gcd(n, d) == 1)
            assert psi_coprime(x, y, d) == coprime, (x, y, d)


def test_moebius_terms_stop_at_x():
    # An e > x has floor(x / e) = 0 and adds nothing, so it is never read.
    es, mus = census._moebius_terms([2, 3, 5], 10)
    assert es.tolist() == [1, 2, 3, 6, 5, 10] and mus.tolist() == [1, -1, -1, 1, -1, 1]
    assert census._moebius_terms(sieve.primes_upto(41).tolist(), 2**52)[0].size == 8192


def test_a_modulus_with_many_primes_is_admitted_term_by_term(monkeypatch):
    # 46 primes up to 199, a d past 2^52: 45,713 squarefree e <= 1e6.
    d = math.prod(sieve.primes_upto(199).tolist())
    smooth = smooth_stream(0, 10**6, 1e3)
    assert psi_coprime(1e6, 1e3, d) == sum(1 for n in smooth if math.gcd(n, d) == 1)
    monkeypatch.setattr(sieve, "QUOTIENT_BUDGET", 40_000 * sieve._QUOTIENT_HOLD)
    with pytest.raises(CapacityError, match="inclusion-exclusion terms"):
        psi_coprime(1e6, 1e3, d)


def _coprime_up_to(x, primes):
    """sum of mu(e) floor(x / e) over the squarefree e made of ``primes``: Psi_d(x, inf)."""
    return sum(
        (-1) ** k * (x // math.prod(es))
        for k in range(len(primes) + 1)
        for es in itertools.combinations(primes, k)
    )


def test_a_modulus_near_2_52_builds_no_prime_table_to_its_root():
    # A prime table up to sqrt(d) = 2^26 took 2.0 s and a 181 MiB peak.
    primes = [3, 5, 53, 157, 1613, 2731, 8191]
    assert math.prod(primes) == 2**52 - 1
    tracemalloc.start()
    try:
        got = psi_coprime(2**40, math.inf, 2**52 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _coprime_up_to(2**40, primes)
    assert peak < 16 * 2**20


def test_a_modulus_past_2_52_keeps_its_primes_above_2_18():
    # 384773 > 2^18 is found in what is left of d after the primes to 2^18.
    primes = [5, 5581, 8681, 49477, 384773]
    assert math.prod(primes) == 2**62 + 1
    assert psi_coprime(2**40, math.inf, 2**62 + 1) == _coprime_up_to(2**40, primes)
    assert psi_coprime(1e8, 5e4, 2**62 + 1) == psi_coprime(1e8, 5e4, math.prod(primes[:4]))


def test_a_modulus_past_2_52_without_primes_to_2_18_is_refused_at_once():
    # Its primes 1422061 and 12667809967 are past 2^18, and what is left is d
    # itself, past 2^52: the prime table to sqrt(d) took 3.9 s and 379 MB.
    d = 2**54 + 3
    assert d == 1422061 * 12667809967
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="past 2\\^52 after its primes up to 2\\^18"):
            psi_coprime(2**40, math.inf, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # With y <= 2^18 none of its primes counts.
    assert psi_coprime(1e6, 1e3, d) == psi(1e6, 1e3)


#: Moduli for ``_coprime_counts``: squarefree and not, with 13 primes, and past 2^52.
COPRIME_MODULI = [1, 2, 12, 97, 30030, PRIMORIAL_13, 2**62 + 1, 2**54 + 3, 3 * 2**60]

#: Moduli made of the primes up to 60, a prime repeating or shared between
#: moduli, so the lists of one call repeat terms.
SMALL_PRIME_MODULI = st.lists(st.sampled_from(sieve.primes_upto(60).tolist()), max_size=8).map(
    math.prod
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 10**4) | st.floats(1, 10**4),
    st.sampled_from([1, 1.5, 2, 7, 13, 30, 97.5, 100, 1e3, 1e5, math.inf]),
    st.lists(SMALL_PRIME_MODULI | st.sampled_from(COPRIME_MODULI), min_size=1, max_size=5).flatmap(
        lambda ds: st.permutations([*ds, 1, 2**62 + 1])
    ),
)
@example(10**4, 97.5, [2**62 + 1, 12, 2**62 + 1, PRIMORIAL_13, 12])
@example(10**4, 1e3, [3 * 2**60, 30030, 3 * 2**60])
@example(10**4, 30, [6, 1, 6, 2, 2**62 + 1, 4])
def test_coprime_counts_match_psi_coprime_and_gcd_counts(x, y, ds):
    # One quotient count serves a whole list of moduli and reads every term
    # as given, repeats included, with d = 1 and a d past 2^52 anywhere.
    top = math.floor(x)
    smooth = oracle_smooth_list(0, top, y)
    lists = [sieve._modulus_primes(d, min(y, top)) for d in ds]
    psi_value, counts = census._coprime_counts(top, y, lists)
    assert psi_value == len(smooth)
    assert counts == [psi_coprime(x, y, d) for d in ds]
    assert counts == [sum(1 for n in smooth if math.gcd(n, d) == 1) for d in ds]


def _coprime_counts_over_distinct_terms(top, y, prime_lists):
    """``_coprime_counts`` as it read each distinct term once and gathered it back."""
    terms = [census._moebius_terms(primes, top) for primes in prime_lists]
    es, where = np.unique(np.concatenate([es for es, _mus in terms]), return_inverse=True)
    at = census._psi_quotients(top, y, es)[where]
    parts = np.split(at, np.cumsum([mus.size for _es, mus in terms])[:-1])
    return int(at[0]), [int(mus @ part) for (_es, mus), part in zip(terms, parts)]


def test_a_many_term_modulus_equals_its_distinct_term_count():
    # The 46 primes up to 199 give 172,983 terms at 1e7; the second list
    # shares eight of its primes, and the first list comes again.
    primes = sieve.primes_upto(199).tolist()
    lists = [primes, [2, 3, 5, 7, 11, 13, 197, 199], primes]
    got = census._coprime_counts(10**7, 1e3, lists)
    assert got == _coprime_counts_over_distinct_terms(10**7, 1e3, lists)
    assert got[1][0] == got[1][2] == psi_coprime(1e7, 1e3, math.prod(primes))


def _largest_prime_factors(top):
    """lpf(n) at index n <= top (1 at 0 and 1): each prime p writes p on its multiples, p rising."""
    lpf = np.ones(top + 1, dtype=np.int64)
    for p in range(2, top + 1):
        if lpf[p] == 1:
            lpf[p::p] = p
    return lpf


@pytest.mark.parametrize("top", [10**4, 999_983, 10**6])
def test_coprime_counts_at_large_y_match_a_term_by_term_count(top):
    # At y >= sqrt(x) each distinct e with x // e > y is counted once and
    # written to all its copies; the lists repeat and share terms.  The
    # reference reads Psi(x // e, y) for each term on its own, from a table
    # of largest prime factors made by a plain sieve.
    r = math.isqrt(top)
    lpf = _largest_prime_factors(top)[1:]
    in_v = next(c for c in range(r + 1, top) if top // (top // c) == c)
    not_in_v = next(c for c in range(r + 1, top) if top // (top // c) != c)
    lists = [[2, 3, 5, 7], [3, 5, 7, 11, 13], [2, 3, 5, 7], [], [2, 97], [3, 5, 7, 11, 13]]
    for y in (r, r + 0.5, in_v, not_in_v, 2 * r, top // 2, top - 1):
        smooth_upto = np.concatenate([[0], np.cumsum(lpf <= y)]).tolist()
        reference = [
            sum(
                (-1) ** k * smooth_upto[top // math.prod(c)]
                for k in range(len(primes) + 1)
                for c in itertools.combinations(primes, k)
            )
            for primes in lists
        ]
        assert census._coprime_counts(top, y, lists) == (smooth_upto[top], reference), y


def test_the_quotient_count_is_admitted_before_it_allocates():
    # 2 sqrt(4e15) = 1.3e8 entries of V times 168 primes; it ran unbounded.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="quotient-table updates"):
            psi(4e15, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    cost = sieve._quotient_cost
    assert cost(10**12, 100) < cost(10**12, 1e3) < sieve.QUOTIENT_BUDGET < cost(4 * 10**15, 1e3)
    # The trivial counts build no V, whatever x.
    assert psi(2**52, 1.9) == 1 and psi(2**52, 2**52) == 2**52
    assert cost(2**52, 1.9) == cost(2**52, 2**52) == 0


def test_the_quotient_budget_admits_up_to_its_boundary():
    # At y = 1e3 this top costs 0.9999997 of the budget and the next one
    # 1.0000006; the check alone is called, so no count runs.
    top = 1_190_512_303_235
    assert sieve._quotient_cost(top, 1e3) <= sieve.QUOTIENT_BUDGET < sieve._quotient_cost(top + 1, 1e3)
    sieve._check_quotient(top, 1e3)
    with pytest.raises(CapacityError, match="quotient-table updates"):
        sieve._check_quotient(top + 1, 1e3)


def test_psi_monotonicity():
    rng = random.Random(5)
    for _ in range(50):
        x1 = rng.randrange(2, 5000)
        x2 = x1 + rng.randrange(0, 2000)
        y1 = rng.choice([2, 3, 5, 7, 19])
        y2 = y1 + rng.choice([0, 1, 10])
        assert psi(x2, y1) >= psi(x1, y1)
        assert psi(x1, y2) >= psi(x1, y1)


def test_oracle_size_guard():
    with pytest.raises(CapacityError):
        psi_enum_oracle(10**7 + 1, 2)


def test_psi_coprime_examples():
    assert psi_coprime(10, 3, 2) == 3
    assert psi_coprime(10, 3, 6) == 1
    for x, y in ((10, 3), (500, 7), (1000, 19)):
        assert psi_coprime(x, y, 1) == psi(x, y)
    with pytest.raises(DomainError):
        psi_coprime(10, 3, 0)


def test_psi_coprime_inclusion_exclusion():
    # psi_coprime(x, y, d) = sum over squarefree e | rad(d) of
    # mu(e) * #{smooth n <= x, n = 0 mod e}
    for x, y in ((300, 5), (1000, 19)):
        for d in range(1, 51):
            rad = 1
            dd = d
            p = 2
            while dd > 1:
                if dd % p == 0:
                    rad *= p
                    while dd % p == 0:
                        dd //= p
                p += 1
            direct = psi_coprime(x, y, d)
            via = sum(
                oracle_mu(e) * psi_progression(0, x, y, 0, e)
                for e in range(1, rad + 1)
                if rad % e == 0
            )
            assert direct == via, (x, y, d)


def test_psi_progression_examples():
    assert psi_progression(0, 10, 3, 1, 3) == 2
    assert psi_progression(0, 10, 3, 0, 1) == psi(10, 3)
    assert psi_progression(1, 10, 3, 1, 2) == 2
    with pytest.raises(DomainError):
        psi_progression(0, 10, 3, 1, 0)


def test_psi_progression_partition():
    for x, y in ((100, 3), (1000, 7), (4000, 97)):
        total = psi(x, y)
        for d in (1, 2, 3, 7, 12, 50):
            parts = sum(psi_progression(0, x, y, a, d) for a in range(d))
            assert parts == total, (x, y, d)


def test_psi_progression_negative_residue():
    # residues are reduced mod d
    assert psi_progression(0, 10, 3, -2, 3) == psi_progression(0, 10, 3, 1, 3)
    assert psi_progression(0, 10, 3, 13, 3) == psi_progression(0, 10, 3, 1, 3)


def test_psi_progression_streaming_matches():
    for a, d in ((1, 7), (3, 11), (0, 2)):
        whole = psi_progression(0, 5000, 5, a, d)
        with stream_segment(333):
            assert psi_progression(0, 5000, 5, a, d) == whole


@settings(max_examples=60, deadline=None)
@given(
    first=st.integers(1, 3000),
    span=st.integers(0, 3000),
    y=st.sampled_from([1, 1.5, 2, 3, 7, 10.5, 97, 1e4, math.inf]),
    segment=st.one_of(st.just(1 << 18), st.integers(1, 4000)),
)
def test_smooth_range_values_match_oracle(first, span, y, segment):
    last = first + span
    with stream_segment(segment):
        values = SmoothRange(first, last, y).values
    assert values.dtype == np.int64 and not values.flags.writeable
    assert values.tolist() == oracle_smooth_list(first - 1, last, y)


def test_smooth_range_peaks_at_one_and_a_half_times_its_values():
    # int32 segments and the int64 values they are copied into are all alive
    # at the peak; int64 segments would double it.
    tracemalloc.start()
    try:
        values = SmoothRange(1, 1 << 23, 1e3).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.dtype == np.int64 and values[-1] == 8388608
    assert peak < 1.6 * values.nbytes
    # Segments on either side of 2^31 are narrowed or kept apart.
    first, last = 2**31 - 500, 2**31 + 500
    with stream_segment(300):
        values = SmoothRange(first, last, 1e3).values
    assert values.dtype == np.int64
    assert values.tolist() == oracle_smooth_list(first - 1, last, 1e3)


def test_smooth_range_rejects_bad_ranges():
    with pytest.raises(DomainError):
        SmoothRange(0, 10, 3)
    with pytest.raises(DomainError):
        SmoothRange(10, 9, 3)
    with pytest.raises(CapacityError):
        SmoothRange(1, 1 << 28, 3)


def test_domain_errors():
    with pytest.raises(DomainError):
        psi(0.5, 3)
    with pytest.raises(DomainError):
        psi(10, 0.5)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            psi(x, 3)
        with pytest.raises(DomainError):
            psi_coprime(x, 3, 2)
    with pytest.raises(DomainError):
        psi_enum_oracle(math.nan, 3)
    with pytest.raises(DomainError):
        psi_progression(-1, 10, 3, 1, 2)
    # past the sieve bound, rejected before the first segment
    with pytest.raises(DomainError):
        psi_progression(0, 2**53, 3, 1, 2)
