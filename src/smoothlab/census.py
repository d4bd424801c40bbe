"""Exact counting and enumeration of smooth numbers.

All counting ranges are half-open on the left: a function taking (lo, hi)
counts integers n with lo < n <= hi.  Smoothness bounds y are real valued
and never rounded; for y < 2 only n = 1 qualifies.
"""

import math

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import (
    _check_int, _check_modulus, _check_range, _check_x, _check_y, _smooth_mask, primes_upto,
    segment_bounds,
)

#: Upper limit for the recursive test oracle.
ENUM_ORACLE_LIMIT = 10**7

#: Largest span a SmoothRange will materialize.
MAX_MATERIALIZED_SPAN = 1 << 27


class SmoothRange:
    """The y-smooth integers of [first, last] as one increasing int64 array.

    ``values`` is built once and shared by callers that count many residue
    classes or coprimality tests over one range (discrepancy scans, coprime
    ratios).  Read-only and safe to share between threads.
    """

    def __init__(self, first: int, last: int, y: float):
        y, first = _check_y(y), _check_int(first, "first")
        _, last = _check_range(first - 1, last)
        if last < first:
            raise DomainError(f"empty range [{first}, {last}]")
        if last - first + 1 > MAX_MATERIALIZED_SPAN:
            raise CapacityError(f"range [{first}, {last}] too large to materialize")
        # int32 segments below 2^31 make the peak 1.5 times the int64 values, not 2.
        parts = [_narrow(v) for v in _segment_values(first - 1, last, y)]
        values = np.concatenate(parts, dtype=np.int64)
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


def _narrow(values: np.ndarray) -> np.ndarray:
    """Increasing nonnegative ``values`` as int32 when the last is below 2^31, else unchanged."""
    if values.dtype != np.int32 and values.size and values[-1] < 2**31:
        return values.astype(np.int32)
    return values


def _residues(values: np.ndarray, d: int) -> np.ndarray:
    """Each of the nonnegative ``values`` mod d >= 1, as v - (v // d) * d.

    NumPy divides an integer array by a scalar on a fast path that % does
    not take: per 1e5 values this costs about 0.07 ms on int32 and 0.2 ms
    on int64, against 0.35-0.4 ms for % (2-core box), so callers
    ``_narrow`` the values once first.  A d past the dtype's range, which
    NumPy refuses as a scalar, exceeds every value, and a d above every
    value leaves each value as its own residue.
    """
    if d > np.iinfo(values.dtype).max:
        return values
    quotients = values // d
    quotients *= d
    return np.subtract(values, quotients, out=quotients)


def _count_residue(values: np.ndarray, a: int, d: int) -> int:
    """How many of the increasing ``values`` are congruent to a mod d."""
    return int(np.count_nonzero(_residues(_narrow(values), d) == a % d))


def _count_coprime(values: np.ndarray, primes: list[int], divisible=None) -> int:
    """How many of the increasing ``values`` no prime in ``primes`` divides.

    A y-smooth n can share with d only primes <= y, so the primes of d up
    to y are all a coprimality test over smooth values needs.
    ``divisible`` may map some of the primes to their mask
    ``_residues(values, p) == 0``, built once for several moduli; the
    other primes are tested here.
    """
    values = _narrow(values)
    divisible = divisible or {}
    hit = np.zeros(values.size, dtype=bool)
    for p in primes:
        hit |= divisible[p] if p in divisible else _residues(values, p) == 0
    return values.size - int(np.count_nonzero(hit))


def enumerate_smooth(lo: int, hi: int, y: float):
    """Yield the y-smooth integers in (lo, hi] in increasing order."""
    y = _check_y(y)
    lo, hi = _check_range(lo, hi)
    for values in _segment_values(lo, hi, y):
        yield from values.tolist()


def _segment_values(lo: int, hi: int, y: float):
    """The y-smooth n in (lo, hi], lo >= 0, as one increasing array per segment."""
    for s, e in segment_bounds(lo + 1, hi):
        yield np.flatnonzero(_smooth_mask(s, e, y)) + s


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
    primes = _prime_divisors(d, min(y, top))
    return sum(_count_coprime(v, primes) for v in _segment_values(0, top, y))


def psi_progression(lo: int, hi: int, y: float, a: int, d: int) -> int:
    """Exact count of y-smooth n in (lo, hi] with n congruent to a mod d."""
    y = _check_y(y)
    d, a = _check_modulus(d), _check_int(a, "residue")
    lo, hi = _check_range(lo, hi)
    return sum(_count_residue(v, a, d) for v in _segment_values(lo, hi, y))
