"""Exact counting and enumeration of smooth numbers.

All counting ranges are half-open on the left: a function taking (lo, hi)
counts integers n with lo < n <= hi.  Smoothness bounds y are real valued
and never rounded; for y < 2 only n = 1 qualifies.
"""

import math

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import MAX_SIEVE_BOUND, _check_int, _smooth_mask, primes_upto, segment_bounds

#: Upper limit for the recursive test oracle.
ENUM_ORACLE_LIMIT = 10**7

#: Largest span a SmoothRange will materialize.
MAX_MATERIALIZED_SPAN = 1 << 27


def _check_y(y: float) -> float:
    """Validate a smoothness bound: a real y >= 1, where y = inf means no bound."""
    y = float(y)
    if not y >= 1:
        raise DomainError(f"smoothness bound must be >= 1, got {y}")
    return y


def _check_x(x: float) -> None:
    """Reject a non-finite x, or one past the sieve bound, before any loop."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x > MAX_SIEVE_BOUND:
        raise DomainError(f"x={x:g} exceeds supported bound 2^52")


class SmoothRange:
    """The y-smooth integers of [first, last] as one increasing int64 array.

    ``values`` is built once and shared by callers that count many residue
    classes or coprimality tests over one range (Moebius sums, discrepancy
    scans, coprime ratios).  Read-only and safe to share between threads.
    """

    def __init__(self, first: int, last: int, y: float):
        first, last = _check_int(first, "first"), _check_int(last, "last")
        if first < 1:
            raise DomainError(f"range must start at 1 or above, got {first}")
        if last < first:
            raise DomainError(f"empty range [{first}, {last}]")
        if last - first + 1 > MAX_MATERIALIZED_SPAN:
            raise CapacityError(
                f"range [{first}, {last}] too large to materialize"
            )
        parts = list(_segment_values(first - 1, last, _check_y(y)))
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
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


def _count_residue(values: np.ndarray, a: int, d: int) -> int:
    """How many of ``values`` (none above 2^52) are congruent to a mod d."""
    residues = values % d if d <= MAX_SIEVE_BOUND else values
    return int(np.count_nonzero(residues == a % d))


def _count_coprime(values: np.ndarray, primes: list[int]) -> int:
    """How many of ``values`` no prime in ``primes`` divides.

    A y-smooth n can share with d only primes <= y, so the primes of d up
    to y are all a coprimality test over smooth values needs.
    """
    keep = np.ones(values.size, dtype=bool)
    for p in primes:
        keep &= values % p != 0
    return int(np.count_nonzero(keep))


def enumerate_smooth(lo: int, hi: int, y: float):
    """Yield the y-smooth integers in (lo, hi] in increasing order."""
    y = _check_y(y)
    lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
    if lo < 0:
        raise DomainError(f"lower bound must be >= 0, got {lo}")
    _check_x(hi)
    for values in _segment_values(lo, hi, y):
        yield from values.tolist()


def _segment_values(lo: int, hi: int, y: float):
    """The y-smooth n in (lo, hi], lo >= 0, as one increasing array per segment."""
    for s, e in segment_bounds(lo + 1, hi):
        yield np.flatnonzero(_smooth_mask(s, e, y)) + s


def psi(x: float, y: float) -> int:
    """Exact count of y-smooth integers n with 1 <= n <= x."""
    y = _check_y(y)
    _check_x(x)
    if x < 1:
        raise DomainError(f"psi needs x >= 1, got {x}")
    top = math.floor(x)
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
    if not x >= 1:  # also rejects nan
        raise DomainError(f"oracle needs x >= 1, got {x}")
    if x > ENUM_ORACLE_LIMIT:
        raise CapacityError(f"oracle limited to x <= {ENUM_ORACLE_LIMIT}")
    top = math.floor(x)

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
    d = _check_int(d, "modulus")
    if d < 1:
        raise DomainError(f"modulus must be >= 1, got {d}")
    _check_x(x)
    if x < 1:
        raise DomainError(f"psi_coprime needs x >= 1, got {x}")
    top = math.floor(x)
    primes = _prime_divisors(d, min(y, top))
    return sum(_count_coprime(v, primes) for v in _segment_values(0, top, y))


def psi_progression(lo: int, hi: int, y: float, a: int, d: int) -> int:
    """Exact count of y-smooth n in (lo, hi] with n congruent to a mod d."""
    y = _check_y(y)
    d, a = _check_int(d, "modulus"), _check_int(a, "residue")
    if d < 1:
        raise DomainError(f"modulus must be >= 1, got {d}")
    lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
    if lo < 0:
        raise DomainError(f"lower bound must be >= 0, got {lo}")
    _check_x(hi)
    return sum(_count_residue(v, a, d) for v in _segment_values(lo, hi, y))
