"""Segmented sieves for per-integer arithmetic data.

One stride core, ``_strides``, yields every prime power p^k (p up to a
bound) that has a multiple in a window [lo, hi], with the offset of its
first multiple; it is the only place that does stride arithmetic.  Each
kernel is one loop over it, sized to its question:

- ``_strip_primes`` divides each p, with its full power, out of an integer
  remainder (int32 when hi < 2^31, else int64), optionally taking the
  totient factor (1 - 1/p) at the multiples of p.
- ``_smooth_mask`` strips only the primes p <= min(y, sqrt(hi)).  What is
  left of n has no prime factor <= that bound, so n is y-smooth exactly
  when the remainder is <= y: one comparison per entry.
- ``_phi_segment`` strips every prime p <= sqrt(hi) while taking the
  totient factors, then fixes up the (at most one) prime factor > sqrt(hi)
  where the remainder is still > 1.
- ``_mu_segment`` flips the sign of mu at multiples of p, zeroes it at
  multiples of p^2 and multiplies p into a product of small prime factors;
  a squarefree n whose product falls short of n has one more prime factor,
  above sqrt(hi).
- ``tau_omega_range`` turns the factor k of tau(n) into k + 1 on the p^k
  stride and counts omega(n) on the p stride.

``_phi_at`` is the one kernel that takes no window: it gives phi at an
arbitrary array of values, testing each against the primes up to
sqrt(max) and dropping it once p^2 exceeds what is left of it.  It beats
``_phi_segment`` when the values are a sparse subset of a window.

Streams split a range into ``STREAM_SEGMENT`` (2^18) entries per segment
unless a capacity is given; ``DEFAULT_SEGMENT_CAPACITY`` (2^22) is the
largest window one kernel call accepts by default.

:func:`sieve_range` builds the full table (smallest and largest prime
factor, phi(n) and mu(n)) from the same kernels, so it is no independent
check of them: the tests compare every kernel with the trial-division
oracles in ``tests/conftest.py``, which share no code with this module.
Nothing is cached; every call sieves its window afresh.  Results are
independent of how a range is split into segments.

Conventions: spf(1) = lpf(1) = 1, phi(1) = 1, mu(1) = 1, so that 1 counts as
smooth for every bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

#: Largest number of entries a single segment may hold.
DEFAULT_SEGMENT_CAPACITY = 1 << 22

#: Entries per segment of a stream split with ``capacity=None``.  A 2^18
#: window keeps an int32 remainder (1 MiB) and the int64 totient (2 MiB)
#: near the L2 cache; larger windows were slower on the 2-core reference box.
STREAM_SEGMENT = 1 << 18

#: Entries of the residue matrix that ``_phi_at`` tests per block of primes.
_PHI_AT_BLOCK = 1 << 16

#: Values above this are rejected; counts and totients stay comfortably in int64.
MAX_SIEVE_BOUND = 1 << 52


@dataclass(frozen=True)
class ArithTable:
    """Immutable per-integer arithmetic data for a contiguous range.

    Attributes:
        lo: First value covered (inclusive, >= 1).
        hi: Last value covered (inclusive).
        spf: int64 array, spf[i] = smallest prime factor of lo + i.
        lpf: int64 array, lpf[i] = largest prime factor of lo + i.
        phi: int64 array of Euler totient values.
        mu: int8 array of Moebius values in {-1, 0, 1}.
    """

    lo: int
    hi: int
    spf: np.ndarray
    lpf: np.ndarray
    phi: np.ndarray
    mu: np.ndarray

    def __len__(self):
        return self.hi - self.lo + 1

    def index(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise DomainError(f"{n} outside sieved range [{self.lo}, {self.hi}]")
        return int(n) - self.lo

    def spf_of(self, n: int) -> int:
        return int(self.spf[self.index(n)])

    def lpf_of(self, n: int) -> int:
        return int(self.lpf[self.index(n)])

    def phi_of(self, n: int) -> int:
        return int(self.phi[self.index(n)])

    def mu_of(self, n: int) -> int:
        return int(self.mu[self.index(n)])


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def segment_bounds(lo: int, hi: int, capacity: int | None = None):
    """Split [lo, hi] into inclusive chunks of at most ``capacity`` entries.

    ``capacity=None`` streams in chunks of ``STREAM_SEGMENT`` entries.
    """
    cap = STREAM_SEGMENT if capacity is None else int(capacity)
    if cap < 1:
        raise DomainError("segment capacity must be >= 1")
    s = int(lo)
    hi = int(hi)
    while s <= hi:
        e = min(s + cap - 1, hi)
        yield s, e
        s = e + 1


def _check_window(lo: int, hi: int, capacity: int | None) -> tuple[int, int]:
    """Validate a sieve window [lo, hi] against the bounds and the capacity."""
    lo, hi = int(lo), int(hi)
    cap = DEFAULT_SEGMENT_CAPACITY if capacity is None else int(capacity)
    if lo < 1:
        raise DomainError(f"sieve range must start at 1 or above, got lo={lo}")
    if hi < lo:
        raise DomainError(f"empty sieve range [{lo}, {hi}]")
    if hi > MAX_SIEVE_BOUND:
        raise DomainError(f"hi={hi} exceeds supported bound 2^52")
    if hi - lo + 1 > cap:
        raise CapacityError(
            f"segment [{lo}, {hi}] has {hi - lo + 1} entries, capacity is {cap}"
        )
    return lo, hi


def _strides(lo: int, hi: int, bound: int):
    """Yield (p, k, start) for each prime p <= bound and each p^k with a multiple in [lo, hi].

    ``start`` is the offset of the first multiple of p^k in the window, so
    the multiples are ``start::p**k``.  Powers come in increasing k for
    each p, and the primes in increasing order.  A p^k > hi, or one with
    no multiple in the window, gives start >= size; then so does every
    higher power.
    """
    size = hi - lo + 1
    for p in primes_upto(bound).tolist():
        pk, k = p, 1
        while (start := (-lo) % pk) < size:
            yield p, k, start
            pk *= p
            k += 1


def sieve_range(lo: int, hi: int, capacity: int | None = None) -> ArithTable:
    """Sieve every integer in [lo, hi] into an :class:`ArithTable`.

    Deterministic and independent of any surrounding segmentation.  Raises
    :class:`DomainError` for lo < 1 or out-of-range bounds and
    :class:`CapacityError` when the span exceeds the segment capacity.
    """
    lo, hi = _check_window(lo, hi, capacity)
    size = hi - lo + 1
    root = math.isqrt(hi)
    spf = np.zeros(size, dtype=np.int64)
    lpf = np.zeros(size, dtype=np.int64)
    for p, k, start in _strides(lo, hi, root):
        if k == 1:
            spf_view = spf[start::p]
            spf_view[spf_view == 0] = p
            lpf[start::p] = p  # ascending p, so the last write is the largest
    # What is left of n is 1 or its one prime > sqrt(hi); that is its spf
    # when no smaller prime divides n (1 for n = 1), and always its lpf.
    rem = _strip_primes(lo, hi, root)
    unset = spf == 0
    spf[unset] = rem[unset]
    lpf = np.maximum(lpf, rem)
    phi, mu = _phi_segment(lo, hi, capacity), _mu_segment(lo, hi, capacity)
    for arr in (spf, lpf, phi, mu):
        arr.setflags(write=False)
    return ArithTable(lo=lo, hi=hi, spf=spf, lpf=lpf, phi=phi, mu=mu)


def _strip_primes(lo: int, hi: int, bound: int, phi: np.ndarray | None = None):
    """Divide every prime p <= bound, with its full power, out of each n in [lo, hi].

    Returns the remainders, as int32 when hi < 2^31, which halves the
    largest temporary of a mask pass.  When ``phi`` (aligned with the
    window) is given, it also takes one factor (1 - 1/p) per prime p
    dividing n; that is exact in integers because phi still holds every
    power of p.
    """
    rem = np.arange(lo, hi + 1, dtype=np.int32 if hi < 2**31 else np.int64)
    for p, k, start in _strides(lo, hi, bound):
        if k == 1 and phi is not None:
            phi_view = phi[start::p]
            phi_view -= phi_view // p
        # Once for every multiple of p, then once more per power level p^k.
        rem[start :: p**k] //= p
    return rem


def _smooth_mask(lo: int, hi: int, y: float, capacity: int | None = None) -> np.ndarray:
    """Boolean array over [lo, hi] marking the y-smooth n; y must be >= 1, inf allowed.

    Only primes p <= min(y, sqrt(hi)) are divided out.  If y >= sqrt(hi),
    the remainder is 1 or one prime > sqrt(hi); otherwise every prime
    factor of a remainder > 1 exceeds y.  Either way n is smooth iff the
    remainder is <= y.
    """
    lo, hi = _check_window(lo, hi, capacity)
    root = math.isqrt(hi)
    bound = root if y >= root else math.floor(y)
    return _strip_primes(lo, hi, bound) <= y


def _phi_segment(lo: int, hi: int, capacity: int | None = None) -> np.ndarray:
    """Euler totient of every n in [lo, hi] as an int64 array."""
    lo, hi = _check_window(lo, hi, capacity)
    phi = np.arange(lo, hi + 1, dtype=np.int64)
    rem = _strip_primes(lo, hi, math.isqrt(hi), phi)
    big = np.flatnonzero(rem > 1)  # one prime > sqrt(hi) left, exponent 1
    last = rem[big]
    del rem
    # In place, so the fix-up holds two arrays of len(big) rather than five.
    fixed = phi[big]
    fixed //= last
    last -= 1
    fixed *= last
    phi[big] = fixed
    return phi


def _phi_at(values: np.ndarray) -> np.ndarray:
    """Euler totient at each entry of an integer array of values in [1, 2^52], as int64.

    The values may come in any order.  They are tested against blocks of the
    primes p <= sqrt(max), each block sized so that the residue matrix holds
    about ``_PHI_AT_BLOCK`` entries.  A hit takes the factor (1 - 1/p) and
    divides the full power of p out of the value's remainder.  After a block,
    a value whose remainder is below the square of the next prime is dropped:
    that remainder is 1 or one prime, fixed up at the end as in
    ``_phi_segment``.  The cost is about len(values) * pi(sqrt(max)) residue
    tests, against about the window size times log log for ``_phi_segment``.
    """
    phi = np.array(values, dtype=np.int64)
    if not phi.size:
        return phi
    top = int(phi.max())
    if phi.min() < 1:
        raise DomainError(f"totient needs values >= 1, got {int(phi.min())}")
    if top > MAX_SIEVE_BOUND:
        raise DomainError(f"hi={top} exceeds supported bound 2^52")
    primes = primes_upto(math.isqrt(top))
    rem = phi.astype(np.int32 if top < 2**31 else np.int64)
    live = np.arange(phi.size)
    j = 0
    while j < primes.size and live.size:
        block = primes[j : j + max(1, _PHI_AT_BLOCK // live.size)].astype(rem.dtype)
        j += block.size
        rows, cols = np.nonzero(rem[live][:, None] % block == 0)
        at, p = live[rows], block[cols]
        # ufunc.at applies repeated indices one by one, and a value may have
        # several primes in one block.
        np.floor_divide.at(phi, at, p)
        np.multiply.at(phi, at, p - 1)
        while at.size:
            np.floor_divide.at(rem, at, p)
            again = rem[at] % p == 0
            at, p = at[again], p[again]
        if j < primes.size:
            live = live[rem[live] >= primes[j] ** 2]
    big = np.flatnonzero(rem > 1)  # one prime > sqrt(max) left, exponent 1
    last = rem[big].astype(np.int64)
    phi[big] = phi[big] // last * (last - 1)
    return phi


def _mu_segment(lo: int, hi: int, capacity: int | None = None) -> np.ndarray:
    """Moebius mu of every n in [lo, hi] as an int8 array."""
    lo, hi = _check_window(lo, hi, capacity)
    size = hi - lo + 1
    mu = np.ones(size, dtype=np.int8)
    small = np.ones(size, dtype=np.int64)
    for p, k, start in _strides(lo, hi, math.isqrt(hi)):
        if k == 1:
            mu[start::p] *= -1
            small[start::p] *= p
        elif k == 2:
            mu[start :: p * p] = 0
    # Zero entries stay zero; a squarefree n with a prime > sqrt(hi) flips once more.
    mu[small < np.arange(lo, hi + 1)] *= -1
    return mu


def is_smooth(n: int, y: float) -> bool:
    """True iff every prime factor of n is <= y; n = 1 is vacuously smooth."""
    n = int(n)
    if n < 1:
        raise DomainError(f"smoothness is defined for n >= 1, got {n}")
    if n == 1:
        return True
    return largest_prime_factor(n) <= y


def largest_prime_factor(n: int) -> int:
    """Largest prime factor by trial division; returns 1 for n = 1."""
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    largest = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            largest = d
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        largest = n
    return largest


def tau_omega_range(lo: int, hi: int, capacity: int | None = None):
    """Divisor counts tau(n) and distinct-prime counts omega(n) on [lo, hi].

    Returns a pair of int64 arrays aligned with the range.  The p^k stride
    turns the factor k that the p^(k-1) stride left in tau(n) into k + 1,
    so tau(n) ends as the product of (e + 1) over the exponents e of n.
    """
    lo, hi = _check_window(lo, hi, capacity)
    size = hi - lo + 1
    tau = np.ones(size, dtype=np.int64)
    omega = np.zeros(size, dtype=np.int64)
    root = math.isqrt(hi)
    for p, k, start in _strides(lo, hi, root):
        tau_view = tau[start :: p**k]
        if k == 1:
            omega[start::p] += 1
        else:
            tau_view //= k
        tau_view *= k + 1
    big = _strip_primes(lo, hi, root) > 1  # one prime > sqrt(hi) left, exponent 1
    tau[big] *= 2
    omega[big] += 1
    return tau, omega
