"""Exact counting and enumeration of smooth numbers.

All counting ranges are half-open on the left: a function taking (lo, hi)
counts integers n with lo < n <= hi.  Smoothness bounds y are real valued
and never rounded; for y < 2 only n = 1 qualifies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import _smooth_mask, segment_bounds

#: Upper limit for the recursive test oracle.
ENUM_ORACLE_LIMIT = 10**7

#: Largest span smooth_flags / SmoothRange will materialize (1 byte per n).
MAX_MATERIALIZED_SPAN = 1 << 27


@dataclass(frozen=True)
class SmoothQuery:
    """An (x, y) pair selecting the universe of y-smooth integers up to x."""

    x: float
    y: float

    def __post_init__(self):
        if self.x < 2:
            raise DomainError(f"query needs x >= 2, got {self.x}")
        if self.y < 2:
            raise DomainError(f"query needs y >= 2, got {self.y}")

    @property
    def u(self) -> float:
        """log x / log y, the standard smoothness parameter."""
        return math.log(self.x) / math.log(self.y)


def _check_y(y: float) -> float:
    """Validate a smoothness bound: a real y >= 1, where y = inf means no bound."""
    y = float(y)
    if not y >= 1:
        raise DomainError(f"smoothness bound must be >= 1, got {y}")
    return y


class SmoothRange:
    """Materialized smoothness flags for a contiguous integer range.

    Built once and shared by callers that probe many residue classes of the
    same range (Moebius sums, discrepancy scans).  Immutable after
    construction and safe to share between threads.
    """

    def __init__(self, first: int, last: int, y: float, capacity: int | None = None):
        first, last = int(first), int(last)
        if first < 1:
            raise DomainError(f"range must start at 1 or above, got {first}")
        if last < first:
            raise DomainError(f"empty range [{first}, {last}]")
        if last - first + 1 > MAX_MATERIALIZED_SPAN:
            raise CapacityError(
                f"range [{first}, {last}] too large to materialize"
            )
        self.first = first
        self.last = last
        self.y = _check_y(y)
        parts = [
            _smooth_mask(s, e, self.y, capacity)
            for s, e in segment_bounds(first, last, capacity)
        ]
        flags = parts[0] if len(parts) == 1 else np.concatenate(parts)
        flags.setflags(write=False)
        self.flags = flags

    def covers(self, lo: int, hi: int) -> bool:
        """Whether the half-open interval (lo, hi] lies inside the range."""
        return self.first <= lo + 1 and hi <= self.last

    def _require(self, lo: int, hi: int):
        if not self.covers(lo, hi):
            raise DomainError(
                f"({lo}, {hi}] not covered by flags for [{self.first}, {self.last}]"
            )

    def count(self, lo: int, hi: int) -> int:
        """Smooth integers in (lo, hi]."""
        if hi <= lo:
            return 0
        self._require(lo, hi)
        return int(np.count_nonzero(self.flags[lo + 1 - self.first : hi - self.first + 1]))

    def count_progression(self, lo: int, hi: int, a: int, d: int) -> int:
        """Smooth integers in (lo, hi] congruent to a mod d."""
        if hi <= lo:
            return 0
        self._require(lo, hi)
        n0 = lo + 1 + (a - (lo + 1)) % d
        if n0 > hi:
            return 0
        return int(
            np.count_nonzero(self.flags[n0 - self.first : hi - self.first + 1 : d])
        )

    def count_coprime(self, lo: int, hi: int, d: int) -> int:
        """Smooth integers in (lo, hi] coprime to d."""
        if hi <= lo:
            return 0
        self._require(lo, hi)
        sl = self.flags[lo + 1 - self.first : hi - self.first + 1]
        n = np.arange(lo + 1, hi + 1, dtype=np.int64)
        return int(np.count_nonzero(sl & (np.gcd(n, d) == 1)))

    def values(self, lo: int, hi: int) -> np.ndarray:
        """The smooth integers in (lo, hi], increasing."""
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        self._require(lo, hi)
        sl = self.flags[lo + 1 - self.first : hi - self.first + 1]
        return np.nonzero(sl)[0] + (lo + 1)


def smooth_flags(first: int, last: int, y: float, capacity: int | None = None) -> np.ndarray:
    """Boolean flags for [first, last]: flags[i] marks first + i as y-smooth."""
    return SmoothRange(first, last, y, capacity).flags


def enumerate_smooth(lo: int, hi: int, y: float, capacity: int | None = None):
    """Yield the y-smooth integers in (lo, hi] in increasing order."""
    y = _check_y(y)
    lo, hi = int(lo), int(hi)
    if lo < 0:
        raise DomainError(f"lower bound must be >= 0, got {lo}")
    if hi <= lo:
        return
    for s, e in segment_bounds(max(lo + 1, 1), hi, capacity):
        for i in np.flatnonzero(_smooth_mask(s, e, y, capacity)):
            yield s + int(i)


def psi(x: float, y: float, capacity: int | None = None) -> int:
    """Exact count of y-smooth integers n with 1 <= n <= x."""
    y = _check_y(y)
    if x < 1:
        raise DomainError(f"psi needs x >= 1, got {x}")
    top = math.floor(x)
    total = 0
    for s, e in segment_bounds(1, top, capacity):
        total += int(np.count_nonzero(_smooth_mask(s, e, y, capacity)))
    return total


def psi_enum_oracle(x: float, y: float) -> int:
    """Count smooth numbers by generating prime-power products directly.

    Independent of the sieve machinery; intended as a cross-check at test
    scale (x <= 10^7).
    """
    y = _check_y(y)
    if x < 1:
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


def psi_coprime(
    x: float,
    y: float,
    d: int,
    capacity: int | None = None,
    within: SmoothRange | None = None,
) -> int:
    """Exact count of y-smooth n <= x with gcd(n, d) = 1."""
    y = _check_y(y)
    d = int(d)
    if d < 1:
        raise DomainError(f"modulus must be >= 1, got {d}")
    if x < 1:
        raise DomainError(f"psi_coprime needs x >= 1, got {x}")
    top = math.floor(x)
    if within is not None and within.covers(0, top) and within.y == y:
        return within.count_coprime(0, top, d)
    total = 0
    for s, e in segment_bounds(1, top, capacity):
        n = np.arange(s, e + 1, dtype=np.int64)
        mask = _smooth_mask(s, e, y, capacity)
        total += int(np.count_nonzero(mask & (np.gcd(n, d) == 1)))
    return total


def psi_progression(
    lo: int,
    hi: int,
    y: float,
    a: int,
    d: int,
    capacity: int | None = None,
    within: SmoothRange | None = None,
) -> int:
    """Exact count of y-smooth n in (lo, hi] with n congruent to a mod d."""
    y = _check_y(y)
    d = int(d)
    a = int(a)
    if d < 1:
        raise DomainError(f"modulus must be >= 1, got {d}")
    lo, hi = int(lo), int(hi)
    if lo < 0:
        raise DomainError(f"lower bound must be >= 0, got {lo}")
    if hi <= lo:
        return 0
    if within is not None and within.covers(lo, hi) and within.y == y:
        return within.count_progression(lo, hi, a, d)
    total = 0
    for s, e in segment_bounds(lo + 1, hi, capacity):
        n0 = s + (a - s) % d
        if n0 > e:
            continue
        mask = _smooth_mask(s, e, y, capacity)
        total += int(np.count_nonzero(mask[n0 - s : e - s + 1 : d]))
    return total
