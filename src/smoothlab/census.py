"""Exact counting and enumeration of smooth numbers.

All counting ranges are half-open on the left: a function taking (lo, hi)
counts integers n with lo < n <= hi.  Smoothness bounds y are real valued
and never rounded; for y < 2 only n = 1 qualifies.

Every count over smooth values reads the smooth n of one sieve segment at a
time, in int32 below 2^31 (``_segment_values``), so its memory does not grow
with x.  ``_smooth_values`` alone holds a whole set, of a span up to 2^27.
"""

import math
from collections import Counter

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import (
    _check_int, _check_modulus, _check_range, _check_x, _check_y, _smooth_mask, _window_dtype,
    primes_upto, segment_bounds,
)

#: Upper limit for the recursive test oracle.
ENUM_ORACLE_LIMIT = 10**7

#: Largest span ``_smooth_values`` will materialize, and most moduli
#: ``shifted.t_via_mobius`` takes: it holds a 1-byte indicator of each.
MAX_MATERIALIZED_SPAN = 1 << 27

#: Most divisibility masks ``_coprime_counts`` keeps, one per prime shared
#: by several of its moduli; a mask is one byte per smooth value of a segment.
_MASK_MEMO = 8


class SmoothRange:
    """The y-smooth integers of [first, last] as one increasing int64 array.

    ``values`` is built once, from the int32 array of ``_smooth_values``
    below 2^31, so the build peaks at 1.5 times the int64 values, not 2.
    Read-only and safe to share between threads.  No command builds one.
    """

    def __init__(self, first: int, last: int, y: float):
        y, first = _check_y(y), _check_int(first, "first")
        _, last = _check_range(first - 1, last)
        if last < first:
            raise DomainError(f"empty range [{first}, {last}]")
        values = _smooth_values(first - 1, last, y).astype(np.int64, copy=False)
        values.setflags(write=False)
        self.values = values


def _prime_divisors(d: int, bound: float) -> list[int]:
    """The primes p <= bound dividing d >= 1, by trial division up to min(bound, sqrt(d))."""
    found = []
    for p in primes_upto(math.floor(min(bound, math.isqrt(d)))).tolist():
        if d % p == 0:
            found.append(p)
            while d % p == 0:
                d //= p
    if 1 < d <= bound:  # every prime factor left exceeds sqrt(d), so d is one prime
        found.append(d)
    return found


def _residues(values: np.ndarray, d: int) -> np.ndarray:
    """Each of the nonnegative ``values`` mod d >= 1, as v - (v // d) * d.

    NumPy divides an integer array by a scalar on a fast path that % does
    not take: per 1e5 values this costs about 0.07 ms on int32 and 0.2 ms
    on int64, against 0.35-0.4 ms for % (2-core box), so the segment
    stream comes in int32 below 2^31.  A d past the dtype's range, which
    NumPy refuses as a scalar, exceeds every value, and a d above every
    value leaves each value as its own residue.
    """
    if d > np.iinfo(values.dtype).max:
        return values
    quotients = values // d
    quotients *= d
    return np.subtract(values, quotients, out=quotients)


def enumerate_smooth(lo: int, hi: int, y: float):
    """Yield the y-smooth integers in (lo, hi] in increasing order."""
    y = _check_y(y)
    lo, hi = _check_range(lo, hi)
    for values in _segment_values(lo, hi, y):
        yield from values.tolist()


def _segment_values(lo: int, hi: int, y: float):
    """The y-smooth n in (lo, hi], lo >= 0, one increasing array per segment, int32 below 2^31."""
    for s, e in segment_bounds(lo + 1, hi):
        # Every n of the window fits its dtype, so the cast is exact, and no
        # int64 copy stays alive while the next segment is sieved.
        idx = np.flatnonzero(_smooth_mask(s, e, y))
        yield np.add(idx, s, dtype=_window_dtype(e), casting="unsafe")


def _smooth_values(lo: int, hi: int, y: float) -> np.ndarray:
    """The y-smooth n in (lo, hi], lo >= 0, as one increasing array, int32 when hi < 2^31.

    A span past ``MAX_MATERIALIZED_SPAN`` is a CapacityError, raised before
    anything is allocated.
    """
    if hi - lo > MAX_MATERIALIZED_SPAN:
        raise CapacityError(f"range [{lo + 1}, {hi}] too large to materialize")
    dtype = _window_dtype(hi)
    return np.concatenate([np.empty(0, dtype), *_segment_values(lo, hi, y)], dtype=dtype)


def psi(x: float, y: float) -> int:
    """Exact count of y-smooth integers n with 1 <= n <= x."""
    y = _check_y(y)
    top = _check_x(x)
    total = 0
    for s, e in segment_bounds(1, top):
        total += int(np.count_nonzero(_smooth_mask(s, e, y)))
    return total


def psi_enum_oracle(x: float, y: float) -> int:
    """Count smooth numbers by generating prime-power products directly.

    Independent of the sieve machinery; intended as a cross-check at test
    scale (x <= 10^7).
    """
    y = _check_y(y)
    top = _check_x(x)
    if x > ENUM_ORACLE_LIMIT:
        raise CapacityError(f"oracle limited to x <= {ENUM_ORACLE_LIMIT}")

    primes = []
    m = 2
    while m <= y:
        if all(m % p for p in primes if p * p <= m):
            primes.append(m)
        m += 1

    def count(limit: int, j: int) -> int:
        total = 1  # the empty product
        for k in range(j, len(primes)):
            p = primes[k]
            if p > limit:
                break
            power = p
            while power <= limit:
                total += count(limit // power, k + 1)
                power *= p
        return total

    return count(top, 0)


def psi_coprime(x: float, y: float, d: int) -> int:
    """Exact count of y-smooth n <= x with gcd(n, d) = 1."""
    y = _check_y(y)
    d = _check_modulus(d)
    top = _check_x(x)
    return _coprime_counts(top, y, [_prime_divisors(d, min(y, top))])[1][0]


def _coprime_counts(top: int, y: float, divisors: list[list[int]]) -> tuple[int, list[int]]:
    """Psi(top, y), and per list of primes the y-smooth n <= top that none of them divides.

    A y-smooth n can share with d only primes <= y, so the primes of d up
    to y are all a coprimality test over smooth values needs.  One segment
    stream serves every list.  A prime in several lists is tested once per
    segment, into a divisibility mask that each of them reads; at most
    ``_MASK_MEMO`` masks are kept, for the most shared primes, and any
    other prime is tested per list.
    """
    shared = Counter(p for primes in divisors for p in primes).most_common(_MASK_MEMO)
    memo = [p for p, uses in shared if uses > 1]
    total, counts = 0, [0] * len(divisors)
    for values in _segment_values(0, top, y):
        total += values.size
        divisible = {p: _residues(values, p) == 0 for p in memo}
        for i, primes in enumerate(divisors):
            hit = np.zeros(values.size, dtype=bool)
            for p in primes:
                hit |= divisible[p] if p in divisible else _residues(values, p) == 0
            counts[i] += values.size - int(np.count_nonzero(hit))
    return total, counts


def psi_progression(lo: int, hi: int, y: float, a: int, d: int) -> int:
    """Exact count of y-smooth n in (lo, hi] with n congruent to a mod d."""
    y = _check_y(y)
    d = _check_modulus(d)
    a = _check_int(a, "residue") % d
    lo, hi = _check_range(lo, hi)
    return sum(int(np.count_nonzero(_residues(v, d) == a)) for v in _segment_values(lo, hi, y))
