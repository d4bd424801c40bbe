import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import (
    CapacityError,
    DomainError,
    SmoothRange,
    enumerate_smooth,
    psi,
    psi_coprime,
    psi_enum_oracle,
    psi_progression,
)

from conftest import oracle_mu, oracle_smooth_list, stream_segment


def test_enumerate_examples():
    assert list(enumerate_smooth(0, 10, 3)) == [1, 2, 3, 4, 6, 8, 9]
    assert list(enumerate_smooth(1, 10, 3)) == [2, 3, 4, 6, 8, 9]
    assert list(enumerate_smooth(0, 10, 1.9)) == [1]


def test_enumerate_matches_oracle():
    rng = random.Random(3)
    for _ in range(25):
        lo = rng.randrange(0, 500)
        hi = lo + rng.randrange(1, 400)
        y = rng.choice([2, 3, 5.5, 7, 19, 97])
        assert list(enumerate_smooth(lo, hi, y)) == oracle_smooth_list(lo, hi, y)


def test_enumerate_streams_across_segments():
    big = list(enumerate_smooth(0, 3000, 7))
    with stream_segment(100):
        small_cap = list(enumerate_smooth(0, 3000, 7))
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


def test_psi_equals_enum_oracle_grid():
    for x in (10, 100, 1000):
        for y in (2, 3, 5, 7, 19, 97):
            assert psi(x, y) == psi_enum_oracle(x, y), (x, y)


def test_psi_streaming_matches_single_segment():
    whole = psi(10**4, 19)
    with stream_segment(999):
        assert psi(10**4, 19) == whole


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
        list(enumerate_smooth(-1, 10, 3))
    # past the sieve bound, rejected before the first segment
    with pytest.raises(DomainError):
        psi_progression(0, 2**53, 3, 1, 2)
    with pytest.raises(DomainError):
        next(enumerate_smooth(0, 2**53, 3))
