"""Segmented sieves for per-integer arithmetic data.

One stride core, ``_strides``, yields every prime power p^k (p up to a
bound) that has a multiple in a window [lo, hi], with the offset of its
first multiple; it is the only place that does stride arithmetic.  Each
kernel is one loop over it, sized to its question:

- ``_strip_primes`` builds the bound-smooth part of each n, the product of
  p^v_p(n) over the primes p <= bound, by multiplication alone (int32 when
  hi < 2^31, else int64), and optionally phi of that part.  Nothing is
  divided inside the stride loop.  The multiples of 2^4, 3^2, 5 and 7
  (``_WHEEL``) repeat with period 5040, so they are struck once on the
  window's first period, which is then tiled over the rest; strides run
  only for the other prime powers.
- ``_smooth_mask`` takes only the primes p <= min(y, sqrt(hi)) into the
  part.  What is left of n, n / part, has no prime factor <= that bound,
  so n is y-smooth exactly when n / part <= cap = floor(min(y, hi)), which
  is tested as part >= (n - 1) // cap + 1: one division by a scalar.
- ``_phi_segment`` takes every prime p <= sqrt(hi) with phi of the part,
  then multiplies in q - 1 for the (at most one) prime q = n / part >
  sqrt(hi).
- ``_mu_segment`` flips the sign of mu at multiples of p, zeroes it at
  multiples of p^2 and multiplies p into a product of small prime factors;
  a squarefree n whose product falls short of n has one more prime factor,
  above sqrt(hi).
- ``tau_omega_range`` counts omega(n) on the p stride and adds, on each p^k
  stride, the tau(n) found ahead of p's strides, which turns the factor k
  of tau(n) into k + 1.

``_phi_at`` is the one kernel that takes no window: it gives phi at an
arbitrary array of values, testing each against the primes up to
sqrt(max) and dropping it once p^2 exceeds what is left of it.  Those
primes come one stream segment at a time from the strip core, so its
memory does not grow with sqrt(max).  It beats ``_phi_segment`` when the
values are a sparse subset of a window.

Streams split a range into ``STREAM_SEGMENT`` (2^18) entries per segment,
and ``segment_bounds`` is the only code that does so.  Every windowed
kernel and :func:`sieve_range` reject a window of more than
``DEFAULT_SEGMENT_CAPACITY`` (2^22) entries before they allocate.

:func:`sieve_range` builds the full table (smallest and largest prime
factor, phi(n) and mu(n)) from the same kernels, so it is no independent
check of them: the tests compare every kernel with the factoring
oracles in ``tests/conftest.py``, which share no code with this module.
Nothing is cached; every call sieves its window afresh.  Results are
independent of how a range is split into segments.

Conventions: spf(1) = lpf(1) = 1, phi(1) = 1, mu(1) = 1, so that 1 counts as
smooth for every bound.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

#: Largest window one kernel call or ``sieve_range`` accepts.
DEFAULT_SEGMENT_CAPACITY = 1 << 22

#: Entries per segment of every stream (``segment_bounds``).  A 2^18
#: window keeps an int32 smooth part and totient (1 MiB each) near the L2
#: cache; larger windows were slower on the 2-core reference box.
STREAM_SEGMENT = 1 << 18

#: The prime powers p^e (p -> e) whose multiples ``_strip_primes`` takes from
#: one tiled pattern instead of strides.  The pattern of any subset of them
#: repeats with a period dividing their product, 5040.
_WHEEL = {2: 4, 3: 2, 5: 1, 7: 1}
_WHEEL_PERIOD = math.prod(p**e for p, e in _WHEEL.items())

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
        return _check_int(n, "n") - self.lo

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


def _check_int(value, what: str) -> int:
    """``value`` as an int; DomainError for nan, an infinity or a non-integral value."""
    if not isinstance(value, numbers.Integral) and not (
        math.isfinite(value) and value == math.floor(value)
    ):
        raise DomainError(f"{what} must be an integer, got {value}")
    return int(value)


def segment_bounds(lo: int, hi: int):
    """Split [lo, hi] into inclusive chunks of at most ``STREAM_SEGMENT`` entries."""
    s = int(lo)
    hi = int(hi)
    while s <= hi:
        e = min(s + STREAM_SEGMENT - 1, hi)
        yield s, e
        s = e + 1


def _check_window(lo: int, hi: int) -> tuple[int, int]:
    """Validate a sieve window [lo, hi] against the bounds and the window cap."""
    lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
    if lo < 1:
        raise DomainError(f"sieve range must start at 1 or above, got lo={lo}")
    if hi < lo:
        raise DomainError(f"empty sieve range [{lo}, {hi}]")
    if hi > MAX_SIEVE_BOUND:
        raise DomainError(f"hi={hi} exceeds supported bound 2^52")
    if hi - lo + 1 > DEFAULT_SEGMENT_CAPACITY:
        raise CapacityError(
            f"segment [{lo}, {hi}] has {hi - lo + 1} entries, "
            f"capacity is {DEFAULT_SEGMENT_CAPACITY}"
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


def sieve_range(lo: int, hi: int) -> ArithTable:
    """Sieve every integer in [lo, hi] into an :class:`ArithTable`.

    Deterministic and independent of any surrounding segmentation.  Raises
    :class:`DomainError` for lo < 1 or out-of-range bounds and
    :class:`CapacityError` past ``DEFAULT_SEGMENT_CAPACITY`` entries.
    """
    lo, hi = _check_window(lo, hi)
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
    rem = np.arange(lo, hi + 1, dtype=np.int64) // _strip_primes(lo, hi, root)
    unset = spf == 0
    spf[unset] = rem[unset]
    lpf = np.maximum(lpf, rem)
    phi, mu = _phi_segment(lo, hi), _mu_segment(lo, hi)
    for arr in (spf, lpf, phi, mu):
        arr.setflags(write=False)
    return ArithTable(lo=lo, hi=hi, spf=spf, lpf=lpf, phi=phi, mu=mu)


def _strip_primes(lo: int, hi: int, bound: int, phi: bool = False):
    """The bound-smooth part of each n in [lo, hi]: prod p^v_p(n) over primes p <= bound.

    The part divides n, so it is built by multiplication alone in the
    window's dtype (int32 when hi < 2^31): ``_wheel_part`` gives the
    multiples of the ``_WHEEL`` powers and every other p^k multiplies p
    into its multiples.  With ``phi`` it returns (part, phi(part)) in that
    dtype; phi(part) takes p - 1 at the p stride and p at each higher
    power, exact because every partial product divides n.
    """
    part, tot = _wheel_part(lo, hi, bound, phi)
    for p, k, start in _strides(lo, hi, bound):
        if k <= _WHEEL.get(p, 0):
            continue
        part[start :: p**k] *= p
        if phi:
            tot[start :: p**k] *= p - 1 if k == 1 else p
    return (part, tot) if phi else part


def _wheel_part(lo: int, hi: int, bound: int, phi: bool):
    """(part, phi(part) or None) of each n in [lo, hi] over the ``_WHEEL`` powers p^e, p <= bound.

    Their multiples repeat every ``_WHEEL_PERIOD`` entries, so the powers
    are struck on the first period of the window alone, which is then tiled
    over the rest.
    """
    span = min(hi - lo + 1, _WHEEL_PERIOD)
    dtype = np.int32 if hi < 2**31 else np.int64
    part = np.ones(span, dtype=dtype)
    tot = np.ones(span, dtype=dtype) if phi else None
    for p, k, start in _strides(lo, lo + span - 1, min(bound, max(_WHEEL))):
        if k <= _WHEEL[p]:
            part[start :: p**k] *= p
            if phi:
                tot[start :: p**k] *= p - 1 if k == 1 else p
    size = hi - lo + 1
    return np.resize(part, size), np.resize(tot, size) if phi else None


def _smooth_mask(lo: int, hi: int, y: float) -> np.ndarray:
    """Boolean array over [lo, hi] marking the y-smooth n; y must be >= 1, inf allowed.

    Only primes p <= min(y, sqrt(hi)) go into the smooth part.  If
    y >= sqrt(hi), what is left of n is 1 or one prime > sqrt(hi);
    otherwise every prime factor of a leftover > 1 exceeds y.  Either way n
    is smooth iff n / part <= cap = floor(min(y, hi)), that is iff
    part >= ceil(n / cap) = (n - 1) // cap + 1: one division by a scalar.
    """
    lo, hi = _check_window(lo, hi)
    root = math.isqrt(hi)
    bound = root if y >= root else math.floor(y)
    cap = math.floor(min(y, hi))
    part = _strip_primes(lo, hi, bound)
    need = np.arange(lo - 1, hi, dtype=part.dtype)
    need //= cap
    need += 1
    return part >= need


def _phi_segment(lo: int, hi: int) -> np.ndarray:
    """Euler totient of every n in [lo, hi] as an int64 array."""
    lo, hi = _check_window(lo, hi)
    part, phi = _strip_primes(lo, hi, math.isqrt(hi), phi=True)
    # n // part is 1 or the one prime q > sqrt(hi) of n, exponent 1, whose
    # factor q - 1 phi(part) still lacks; phi(n) <= n keeps the dtype.
    rem = np.arange(lo, hi + 1, dtype=part.dtype)
    rem //= part
    rem -= rem > 1
    phi *= rem
    return phi.astype(np.int64, copy=False)


def _prime_windows(top: int):
    """The primes <= top in increasing arrays, one per stream segment.

    The first array comes from ``primes_upto``; after it every window
    [lo, hi] has lo > sqrt(hi), so its primes are the n whose smooth part
    over the primes <= sqrt(hi) is 1.
    """
    first = min(top, STREAM_SEGMENT)
    yield primes_upto(first)
    for lo, hi in segment_bounds(first + 1, top):
        yield np.flatnonzero(_strip_primes(lo, hi, math.isqrt(hi)) == 1) + lo


def _phi_at(values: np.ndarray) -> np.ndarray:
    """Euler totient at each entry of an integer array of values in [1, 2^52], as int64.

    The values may come in any order.  They are tested against blocks of the
    primes p <= sqrt(max), taken one stream segment at a time from
    ``_prime_windows``, each block sized so that the residue matrix holds
    about ``_PHI_AT_BLOCK`` entries.  A hit takes the factor (1 - 1/p) and
    divides the full power of p out of the value's remainder.  After a block
    ending at prime q, a value whose remainder is below (q + 1)^2 is dropped:
    that remainder is 1 or one prime, fixed up at the end as in
    ``_phi_segment``.  No more primes are made once no value is left.  The
    cost is about len(values) * pi(sqrt(max)) residue tests, against about
    the window size times log log for ``_phi_segment``.
    """
    phi = np.array(values, dtype=np.int64)
    if not phi.size:
        return phi
    top = int(phi.max())
    if phi.min() < 1:
        raise DomainError(f"totient needs values >= 1, got {int(phi.min())}")
    if top > MAX_SIEVE_BOUND:
        raise DomainError(f"hi={top} exceeds supported bound 2^52")
    rem = phi.astype(np.int32 if top < 2**31 else np.int64)
    live = np.arange(phi.size)
    for primes in _prime_windows(math.isqrt(top)):
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
            live = live[rem[live] >= (int(block[-1]) + 1) ** 2]
        if not live.size:
            break
    big = np.flatnonzero(rem > 1)  # one prime > sqrt(max) left, exponent 1
    last = rem[big].astype(np.int64)
    phi[big] = phi[big] // last * (last - 1)
    return phi


def _mu_segment(lo: int, hi: int) -> np.ndarray:
    """Moebius mu of every n in [lo, hi] as an int8 array."""
    lo, hi = _check_window(lo, hi)
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
    n = _check_int(n, "n")
    if n < 1:
        raise DomainError(f"smoothness is defined for n >= 1, got {n}")
    if n == 1:
        return True
    return largest_prime_factor(n) <= y


def largest_prime_factor(n: int) -> int:
    """Largest prime factor by trial division; returns 1 for n = 1."""
    n = _check_int(n, "n")
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


def tau_omega_range(lo: int, hi: int):
    """Divisor counts tau(n) and distinct-prime counts omega(n) on [lo, hi].

    Returns a pair of int64 arrays aligned with the range, counted in int32.
    Ahead of p's strides, ``before`` keeps tau(n); after the p^(k-1) stride
    tau(n) is before * k, and the p^k stride adds before, so tau(n) ends as
    the product of (e + 1) over the exponents e of n.
    """
    lo, hi = _check_window(lo, hi)
    size = hi - lo + 1
    tau = np.ones(size, dtype=np.int32)
    omega = np.zeros(size, dtype=np.int32)
    before = np.empty(size, dtype=np.int32)
    root = math.isqrt(hi)
    for p, k, start in _strides(lo, hi, root):
        if k == 1:
            omega[start::p] += 1
            before[start::p] = tau[start::p]
        tau[start :: p**k] += before[start :: p**k]
    # A part short of n leaves one prime > sqrt(hi), exponent 1.
    big = _strip_primes(lo, hi, root) < np.arange(lo, hi + 1)
    tau[big] *= 2
    omega[big] += 1
    return tau.astype(np.int64), omega.astype(np.int64)
