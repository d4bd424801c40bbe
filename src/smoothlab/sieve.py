"""Segmented sieves for per-integer arithmetic data.

One stride core, ``_strides``, yields every prime power p^k (p up to a
bound) that has a multiple in a window [lo, hi], with the offset of its
first multiple; it is the only place that does stride arithmetic.  Each
kernel is one loop over it, sized to its question:

- ``_strip_primes`` builds the bound-smooth part of each n, the product of
  p^v_p(n) over the primes p <= bound, by multiplication alone in the
  window's dtype (int32 when hi < 2^31): the part, the part and its phi
  as two rows that each stride multiplies in one step, or mu(part) part;
  the multiples of 2^4, 3^2, 5 and 7 come from one period of 5040
  broadcast over the strip.  A caller may hand it the strip (``out``).
- ``_smooth_mask`` takes the primes p <= min(y, sqrt(hi)) into the part,
  and n is y-smooth exactly when part >= (n - 1) // floor(min(y, hi)) + 1.
- a phi strip takes every prime p <= sqrt(hi) with phi of the part, and
  ``_phi_from_part`` multiplies in q - 1 for the (at most one) prime
  q = n / part > sqrt(hi); ``sieve_range`` and the shifted kernel share it.
- ``_reduce_pass`` is the one pass of shifted totients, for a whole list
  of shifts at once, and every T/V consumer reduces through it;
  ``_generated_smooth`` picks its one route from its arguments alone.  At
  small y the pass generates the smooth n, multiplied out of the prime
  powers up to y (``_smooth_upto``), and takes phi(n - a) from
  ``_phi_at``.  Otherwise ``_sieve_phi_segment``
  strips each segment [s, e] once for every shift: one phi strip of the
  union window [min(s, s - max a), max(e, e - min a)], read for
  smoothness as ``_smooth_mask`` reads its own, or the mask and then one
  strip of each band of shifts.  Strips per segment, reads per window: it
  yields the segment in windows of whole ``_READ_BLOCK`` (2^14) entry
  blocks that hold at most 2^14 smooth n each, so the smoothness test, the
  gathers and the callers' sums make no array of the segment's size.  The
  strips of every segment go into the buffers of the pass's context.
  The pass runs a caller's additive reducer, one result per part: it cuts
  a sieved pass of at least twice ``_SPLIT_ENTRIES`` n at segment
  boundaries into one part per CPU and reduces each part past the first
  in a forked child, whose integers (or error) come back through a pipe; a
  part whose child cannot be made is reduced in the parent.
- ``_mu_segment`` reads mu off a mu strip, which takes no p^k past p^2,
  and ``_tau_omega`` gives tau
  and omega from the strides; each finds the n with a prime above sqrt(hi)
  where the ``_strip_primes`` part falls short of n.

``_factor_at`` is the one factorization of single integers and takes no
window: trial division by the primes up to min(sqrt(max), 2^18), then
Miller-Rabin and Pollard-Brent (one gcd per block of steps), so its memory
does not grow with sqrt(max).  ``_phi_at`` (a generated pass),
``is_smooth``, ``largest_prime_factor`` and the moduli of ``psi_coprime``
and ``ft_ratio_scan`` read it.

Every segmented stream (the sieved T/V pass, ``census``'s smooth values,
``aux_averages`` and the moduli of the Moebius split) makes one
``_PassContext``, which cuts its ``STREAM_SEGMENT`` (2^18) entry segments
and holds its primes and strip buffers.  A sieved pass strips each
segment into its buffers once and reads it in windows of at most
``_READ_BLOCK`` (2^14) smooth n, which holds its tracemalloc peak at one
segment's strips plus 2^14-entry temporaries: 2.9 MiB for
``t_exact(4.6e6, 1e5, 1)`` and 3.3 MiB for three shifts, against 10.9 and
19.9 MiB when each segment was read whole.  The buffers outlive the
segment, so a warm pass faults their pages in once.  A generated pass cuts
no segments, but one window per run of its smooth n, and holds at most
``GENERATED_CAPACITY`` (2^22) of them.  Only :func:`sieve_range` takes
windows from outside callers, and it refuses one past
``DEFAULT_SEGMENT_CAPACITY`` (2^22) entries before it allocates; the other
kernels and ``_factor_at`` trust the range or values their entry point
checked.

:func:`sieve_range` builds the full table (spf, lpf, phi and mu) from the
same kernels in three stride walks (its spf/lpf loop, one phi strip and
one mu strip), so it is no independent check of them: the tests compare
every kernel with the factoring oracles in ``tests/conftest.py``, which
share no code with this module.
Nothing is cached; every call sieves its window afresh.  Results are
independent of how a range is split into segments.

Conventions: spf(1) = lpf(1) = 1, phi(1) = 1, mu(1) = 1, so that 1 counts as
smooth for every bound.
"""

import bisect
import itertools
import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from decimal import Context, Decimal

import numpy as np

from .errors import AccuracyError, CapacityError, DomainError, SmoothlabError

#: Largest window ``sieve_range`` accepts.
DEFAULT_SEGMENT_CAPACITY = 1 << 22

#: Entries per segment of every stream (``_PassContext.segments``), and
#: smooth n per run of a generated pass (``_generated_phi_segments``).  A
#: 2^18 window keeps an int32 smooth part and totient (1 MiB each) near the
#: L2 cache; larger windows were slower on the 2-core reference box.  A
#: stream's strip buffers are sized from its first segment.
STREAM_SEGMENT = 1 << 18

#: Entries per read block of a sieved segment, and most smooth n per window:
#: ``_sieve_phi_segment`` strips a segment once and yields it in windows of
#: whole blocks that hold at most this many smooth n, and
#: ``_part_is_smooth`` tests smoothness one block at a time.  So the
#: smoothness test, the gathers of ``_phi_read`` and the callers' sums
#: make no array of the segment's size, and each stays in the L2 cache.
_READ_BLOCK = 1 << 14

#: Fewest n of a part of a split pass.  ``_reduce_pass`` cuts a sieved pass
#: of at least twice this many n into parts, one per CPU and none shorter,
#: and reduces them in processes of their own.  On the 2-core reference box
#: (medians of 15, two runs; its second core is shared, so they move) two
#: parts took 0.62-0.67 of the serial time at 10 segments of 2^18, 0.71-0.83
#: at 6, 0.86-0.91 at 5 and 1.0-1.8 at 2 to 4, so a pass splits from 6
#: segments on.  It counts n, not segments: a pass of a few thousand n
#: never splits, however short its segments.
_SPLIT_ENTRIES = 3 << 18

#: Largest span ``census._smooth_values`` will materialize, and most moduli
#: ``shifted.t_via_mobius`` takes: it holds a 1-byte indicator of each.
MAX_MATERIALIZED_SPAN = 1 << 27

#: Most smooth n a generated pass holds: 2^22 int64 values, 32 MiB.  A
#: generation stopped at it peaked at 73 MB of RSS, against 198 MB at 2^24.
GENERATED_CAPACITY = 1 << 22

#: A pass generates its smooth n and takes phi(n - a) from ``_phi_at`` when
#: their count times the shifts times pi(sqrt(hi - min a)), as Rosser and
#: Schoenfeld bound it (``_prime_count_bound``), is below this multiple of
#: hi - lo, and sieves a mask and strips otherwise.  With a = 1 at y = 100
#: (2-core box, min of 3) the sieve took 2.1 and 7.7 s at x = 1e8 and 3e8
#: and generating 1.7 and 4.4 s; 12 sieves both and 13 generates both.  At
#: x = 1e7 and 3e7, which 13 sieves, the two routes are within 15 %.
SPARSE_PHI_FACTOR = 13

#: The prime powers p^e (p -> e) whose multiples ``_strip_primes`` takes from
#: one tiled pattern instead of strides.  The pattern of any subset of them
#: repeats with a period dividing their product, 5040.
_WHEEL = {2: 4, 3: 2, 5: 1, 7: 1}
_WHEEL_PERIOD = math.prod(p**e for p, e in _WHEEL.items())

#: Entries of the residue matrix that ``_factor_at`` tests per block of primes.
_TRIAL_BLOCK = 1 << 16

#: ``_factor_at`` divides by the primes up to this.  Three primes above it
#: multiply to more than 2^52, so what is left of a value is 1, a prime,
#: or a product p q or p^2 of two primes, which ``_split_semiprime`` splits.
_TRIAL_PRIMES = 1 << 18

#: Steps of ``_pollard_brent`` whose differences share one gcd.
_BRENT_BLOCK = 128

#: Miller-Rabin with these bases is exact for every n below 3.8e18 > 2^52.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

#: Values above this are rejected; counts and totients stay comfortably in int64.
MAX_SIEVE_BOUND = 1 << 52

#: Most work one quotient count of psi (``census._psi_quotients``) may do,
#: in updates of one entry of its int64 tables, as ``_quotient_cost``
#: estimates it from x and y.  Psi(1e12, 100) is about 1.8e8 of them and
#: Psi(1e12, 1e3) about 4.9e8; on the 2-core reference box they took 0.45
#: and 2.3 s, the slowest of the admitted counts timed there, each under
#: 70 MB of peak RSS.
QUOTIENT_BUDGET = 1 << 29

#: Each entry of V(x) is charged this many updates for being held, in its
#: table and the temporaries, through the whole count; so the budget also
#: caps V at QUOTIENT_BUDGET / 64 = 2^23 entries, 32 MiB per table.
_QUOTIENT_HOLD = 64

#: Updates charged per prime for the handful of numpy calls it takes.
_QUOTIENT_PER_PRIME = 4000

#: Largest ceil(u_max) a Dickman rho table covers (about 16 MB of series),
#: and its coarsest knot step.
MAX_UNITS = 10_000
MAX_STEP = 1.0 / 64.0


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
    """All primes <= n as an int64 array (Eratosthenes; ``mask[i]`` is the odd 2i + 1)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones((n + 1) // 2, dtype=bool)
    mask[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if mask[i]:  # p = 2i + 1 strikes its odd multiples from p^2 = 2 * 2i(i + 1) + 1 on
            mask[2 * i * (i + 1) :: 2 * i + 1] = False
    return np.concatenate([[2], 2 * np.flatnonzero(mask) + 1], dtype=np.int64)


# ---------------------------------------------------------------------------
# Argument checks: the one validation layer.  Every public entry point of the
# package checks its x, y, shift a, modulus d, cutoff delta, range ends and
# rho table arguments here, in O(1) and before it allocates or loops, and
# raises DomainError (or CapacityError for a window, table or quotient count
# past its cap) instead of answering.  A real argument goes through
# ``_to_float``: an int past the float range is inf.


def _check_int(value, what: str) -> int:
    """``value`` as an int; DomainError for nan, an infinity or a non-integral value."""
    if not isinstance(value, numbers.Integral) and not (
        math.isfinite(value) and value == math.floor(value)
    ):
        raise DomainError(f"{what} must be an integer, got {value}")
    return int(value)


def _to_float(value) -> float:
    """A real value as a float; an int past the float range becomes +inf or -inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_y(y: float) -> float:
    """A smoothness bound as a float: a real y >= 1, where y = inf means no bound."""
    y = _to_float(y)
    if not y >= 1:
        raise DomainError(f"smoothness bound must be >= 1, got {y}")
    return y


def _check_x(x: float) -> int:
    """floor(x) for a finite 1 <= x <= 2^52; a refusal shows x as ``g`` would, unconverted."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"x must be finite, got {x}")
    if x > MAX_SIEVE_BOUND:
        exact = Decimal(int(x) if isinstance(x, numbers.Integral) else float(x))
        raise DomainError(f"x={exact.normalize(Context(prec=6)):g} exceeds supported bound 2^52")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    return math.floor(x)


def _check_range(lo: int, hi: int) -> tuple[int, int]:
    """The integer ends of a range (lo, hi] with lo >= 0 and hi <= 2^52; hi <= lo is empty."""
    lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
    if lo < 0:
        raise DomainError(f"range must start at n = 1 or above, got n = {lo + 1}")
    if hi > MAX_SIEVE_BOUND:
        raise DomainError(f"hi={hi} exceeds supported bound 2^52")
    return lo, hi


def _check_shift(a: int) -> int:
    """A shift a as a nonzero int."""
    a = _check_int(a, "shift a")
    if a == 0:
        raise DomainError("shift a must be nonzero")
    return a


def _check_modulus(d: int, totient: bool = False) -> int:
    """A modulus as an int d >= 1, and d <= 2^52 when the caller takes phi(d)."""
    d = _check_int(d, "modulus")
    if d < 1:
        raise DomainError(f"modulus must be >= 1, got {d}")
    if totient and d > MAX_SIEVE_BOUND:
        raise DomainError(f"modulus {d} exceeds supported bound 2^52")
    return d


def _check_cutoff(delta: float) -> float:
    """A modulus cutoff as a float: a real delta >= 1, where delta = inf keeps every modulus."""
    delta = _to_float(delta)
    if not delta >= 1:
        raise DomainError(f"cutoff delta must be >= 1, got {delta}")
    return delta


def _check_pass(x: float, y: float, a: int) -> tuple[int, float]:
    """Check the arguments of a shifted sum up to x; return the shift and y.

    Every check runs before any sieving: a later pass over (max(a,0),
    floor(x)] raises nothing, and a scan can fail one grid point on its own.
    Each consumer of ``_reduce_pass`` runs it once per x.
    """
    a, y = _check_shift(a), _check_y(y)
    top = _check_x(x)
    _check_range(0, top - a)  # the largest n - a the totient kernels take
    return a, y


def _check_split(x: float, y: float, a: int, delta: float) -> tuple[int, float, float, int]:
    """(a, y, delta, floor(x) - a) of a Moebius split, after every check it makes before its pass."""
    a, y = _check_pass(x, y, a)
    delta, d_max = _check_cutoff(delta), math.floor(x) - a
    if d_max > MAX_MATERIALIZED_SPAN:
        raise CapacityError(f"moduli [1, {d_max}] too large to materialize")
    return a, y, delta, d_max


def _check_log_ratio(x: float, y: float) -> tuple[float, float]:
    """x and y as floats with finite x >= y >= 2, so that u = log x / log y >= 1 is defined."""
    x, y = _to_float(x), _to_float(y)
    if not 2 <= y <= x < math.inf:
        raise DomainError(f"needs finite x >= y >= 2, got x={x}, y={y}")
    return x, y


def _check_window(lo: int, hi: int) -> tuple[int, int]:
    """Validate a sieve window [lo, hi], lo >= 1, against the bounds and the window cap."""
    lo = _check_int(lo, "lo")
    _, hi = _check_range(lo - 1, hi)
    if hi < lo:
        raise DomainError(f"empty sieve range [{lo}, {hi}]")
    if hi - lo + 1 > DEFAULT_SEGMENT_CAPACITY:
        raise CapacityError(
            f"segment [{lo}, {hi}] has {hi - lo + 1} entries, "
            f"capacity is {DEFAULT_SEGMENT_CAPACITY}"
        )
    return lo, hi


def _check_table(u_max: float, h: float) -> tuple[float, float, int]:
    """(u_max, h, ceil(u_max)) for a rho table: a finite u_max >= 1 and 0 < h <= 1/64.

    An h coarser than ``MAX_STEP`` is an AccuracyError, and more than
    ``MAX_UNITS`` units a CapacityError.
    """
    u_max, h = _to_float(u_max), _to_float(h)
    if not 1 <= u_max < math.inf:
        raise DomainError(f"u_max must be finite and >= 1, got {u_max}")
    if not 0 < h < math.inf or math.isinf(1.0 / h):
        raise DomainError(f"step must be positive with a finite reciprocal, got {h}")
    if h > MAX_STEP:
        raise AccuracyError(f"step {h} too coarse; need h <= 1/64")
    units = math.ceil(u_max)
    if units > MAX_UNITS:
        raise CapacityError(f"u_max={u_max} exceeds the table limit of {MAX_UNITS} units")
    return u_max, h, units


def _check_quotient(top: int, y: float) -> None:
    """Refuse a quotient count of Psi(top, y) past ``QUOTIENT_BUDGET`` (CapacityError)."""
    cost = _quotient_cost(top, y)
    if cost > QUOTIENT_BUDGET:
        raise CapacityError(
            f"psi(x={top}, y={y:g}) needs about {cost:.2g} quotient-table updates, "
            f"budget is {QUOTIENT_BUDGET}"
        )


def _check_terms(count: int) -> None:
    """Refuse more inclusion-exclusion terms of psi_d than the budget holds (CapacityError).

    A term is charged as an entry of V is, ``_QUOTIENT_HOLD`` updates, so at
    most 2^23 terms are made.
    """
    if count * _QUOTIENT_HOLD > QUOTIENT_BUDGET:
        raise CapacityError(
            f"the modulus gives more than {QUOTIENT_BUDGET // _QUOTIENT_HOLD} inclusion-exclusion "
            f"terms up to x"
        )


def _quotient_cost(top: int, y: float) -> float:
    """The updates of counting Psi(top, y) over V(top), estimated from top and y alone.

    With cap = floor(min(y, top)), a count sieves the primes up to
    min(cap, sqrt(top)) over V(top), and for sqrt(top) < cap < top also up
    to sqrt(cap) over V(cap) for pi(cap).  A prime p touches the values
    v >= p^2: all 2 sqrt(t) of V(t) while p <= t^(1/4), and about t / p^2
    above, which sum to about t^(3/4) / ln t^(1/4).  Prime counts take
    Rosser and Schoenfeld's bound pi(t) < 1.25506 t / ln t.
    """
    cap = math.floor(min(y, top))
    if cap < 2 or cap >= top:
        return 0.0
    r = math.isqrt(top)
    cost = _sieve_cost(top, min(cap, r))
    if cap > r:
        cost += _sieve_cost(cap, math.isqrt(cap))
    return cost


def _sieve_cost(t: int, bound: int) -> float:
    """Estimated updates of sieving the primes up to ``bound`` over V(t)."""
    r = math.isqrt(t)
    quarter = math.isqrt(r)
    cost = 2 * r * (_QUOTIENT_HOLD + _prime_count_bound(min(bound, quarter)))
    if bound > quarter:
        cost += t / (quarter * math.log(max(quarter, 2)))
    return cost + _QUOTIENT_PER_PRIME * _prime_count_bound(bound)


def _prime_count_bound(t: float) -> float:
    """Rosser and Schoenfeld's bound pi(t) < 1.25506 t / ln t, and 0 below 2."""
    return 1.25506 * t / math.log(t) if t >= 2 else 0.0


def _check_point(u: float, u_max: float) -> float:
    """u as a float in a rho table's range [0, u_max]."""
    u = _to_float(u)
    if not 0 <= u <= u_max:
        raise DomainError(f"u={u} outside table range [0, {u_max}]")
    return u


class _PassContext:
    """The segments, primes and strip buffers of one segmented stream over [lo, hi].

    A stream makes it from its range, and from the shifts a of the n - a
    its strips reach, in its generator, and walks its segments through it.
    A kind of strip (mask, totient, tau or mu) that needs more primes than
    it holds sieves them once, up to the most that kind can ask for a
    value at most top, the largest n - a of the stream.  Every buffer has
    the most rows a strip of the stream takes: 1 for a mask, 2 for the
    part and phi of a T/V pass, 4 for the tau, omega, ``before`` and part
    of ``aux_averages``.  Buffer 0 takes a segment's mask strip (one row)
    and then its union strip, its first band's or its tau strip, and each
    further band has its own, with room for a segment no longer than the
    first plus the widest spread of the shifts and 0 within it, which no
    union strip or band passes.  An int64 buffer serves int32 strips
    through a view, so it is made again only past 2^31.
    """

    def __init__(self, lo: int, hi: int, shifts=(), rows: int = 1):
        self.lo, self.hi = lo, hi
        self.top = hi - min((*shifts, 0))
        self.bound = 1
        self.sieved = np.empty(0, dtype=np.int64)
        self.held = []
        self.rows = rows
        s, e = next(self.segments(), (lo, lo))
        points = sorted({*shifts, 0})
        reach = max(points[bisect.bisect_right(points, a + e - s) - 1] - a for a in points)
        self.width = e - s + 1 + reach

    def segments(self):
        """The range in inclusive segments [s, e] of ``STREAM_SEGMENT`` entries, the last less."""
        for s in range(self.lo, self.hi + 1, STREAM_SEGMENT):
            yield s, min(s + STREAM_SEGMENT - 1, self.hi)

    def primes(self, hi: int, y: float = math.inf) -> np.ndarray:
        """The primes up to min(y, sqrt(hi)) of a strip of values at most hi <= top."""
        bound = min(math.isqrt(hi), math.floor(min(y, hi)))
        if bound > self.bound:
            self.bound = min(math.isqrt(self.top), math.floor(min(y, self.top)))
            self.sieved = primes_upto(self.bound)
        return self.sieved[: np.searchsorted(self.sieved, bound, "right")]

    def strip(self, band: int, lo: int, hi: int, rows: int = 2) -> np.ndarray:
        """A (rows, hi - lo + 1) view, in the window's dtype, of the stream's buffer number band."""
        dtype = np.dtype(_window_dtype(hi))
        if band == len(self.held):
            self.held.append(np.empty((self.rows, self.width), dtype))
        elif self.held[band].itemsize < dtype.itemsize:
            self.held[band] = np.empty((self.rows, self.width), dtype)
        return self.held[band].view(dtype)[:rows, : hi - lo + 1]


def _window_dtype(hi: int):
    """The integer dtype of a window or array whose values are at most hi: int32 below 2^31."""
    return np.int32 if hi < 2**31 else np.int64


def _strides(lo: int, hi: int, primes: np.ndarray, most: int | None = None):
    """Yield (p, k, start) for the increasing primes p and p^k, k <= most, dividing n in [lo, hi].

    ``start`` is the offset of the first multiple of p^k in the window, so
    the multiples are ``start::p**k``, and the powers of each p come in
    increasing k.  A p^k > hi ends them: in a window of lo >= 1 it has no
    multiple, and in one holding 0 its only multiple is 0.  A p^k with none
    gives start >= size; then so does every higher power, so the primes
    with none are dropped in one array step.  ``most`` None takes every k.
    """
    size = hi - lo + 1
    most = hi if most is None else most  # a p^k <= hi has k < hi
    for p in primes[(-lo) % primes < size].tolist():
        pk, k = p, 1
        while k <= most and pk <= hi and (start := (-lo) % pk) < size:
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
    primes = primes_upto(math.isqrt(hi))
    spf = np.zeros(size, dtype=np.int64)
    lpf = np.zeros(size, dtype=np.int64)
    for p, k, start in _strides(lo, hi, primes):
        if k == 1:
            spf_view = spf[start::p]
            spf_view[spf_view == 0] = p
            lpf[start::p] = p  # ascending p, so the last write is the largest
    # What is left of n is 1 or its one prime > sqrt(hi); that is its spf
    # when no smaller prime divides n (1 for n = 1), and always its lpf.
    part, tot = _strip_primes(lo, hi, primes, "phi")
    rem = np.arange(lo, hi + 1, dtype=part.dtype)
    rem //= part
    unset = spf == 0
    spf[unset] = rem[unset]
    lpf = np.maximum(lpf, rem)
    phi, mu = _phi_from_part(rem, tot), _mu_segment(lo, hi, primes).astype(np.int8)
    for arr in (spf, lpf, phi, mu):
        arr.setflags(write=False)
    return ArithTable(lo=lo, hi=hi, spf=spf, lpf=lpf, phi=phi, mu=mu)


def _strip_primes(lo: int, hi: int, primes: np.ndarray, kind: str = "part", out=None):
    """The part of each n in [lo, hi] over the primes up to a bound, increasing: prod p^v_p(n).

    The part divides n, so it is built by multiplication alone in the
    window's dtype (int32 when hi < 2^31): ``_wheel_fill`` gives the
    multiples of the ``_WHEEL`` powers and every other p^k multiplies its
    ``_stride_factor`` into its multiples.  The kind "mu" returns mu(part)
    part, 0 from p^2 on, so it takes no p^k past k = 2 (``_powers``), and
    "phi" (part, phi(part)), the rows of one strip that each
    stride multiplies in one step; phi(part) takes p - 1 at the p stride
    and p at each higher power, exact because every partial product
    divides n.  The strip is ``out``, a (2 or 1, hi - lo + 1) array in the
    window's dtype that it overwrites, or a new one.
    """
    phi = kind == "phi"
    strip = np.empty((2 if phi else 1, hi - lo + 1), _window_dtype(hi)) if out is None else out
    _wheel_fill(strip, lo, primes, kind)
    rows, pair = (strip, np.empty((2, 1), strip.dtype)) if phi else (strip[0], None)
    for p, k, start in _strides(lo, hi, primes, _powers(kind)):
        if k > _WHEEL.get(p, 0):
            rows[..., start :: p**k] *= _stride_factor(p, k, kind, pair)
    return (strip[0], strip[1]) if phi else strip[0]


def _stride_factor(p: int, k: int, kind: str, pair):
    """What the p^k stride multiplies into a strip of a kind: p, except for phi at k = 1 and mu.

    A phi strip takes the column (p, p - 1) at k = 1, written into pair,
    its (2, 1) array; a mu strip takes -p at k = 1 and 0 at k = 2.
    """
    if kind == "phi" and k == 1:
        pair[0, 0], pair[1, 0] = p, p - 1
        return pair
    if kind == "mu":
        return -p if k == 1 else 0
    return p


def _powers(kind: str) -> int | None:
    """The highest k of the p^k that stride a strip of a kind: 2 for mu (p^2 zeroes it), or all."""
    return 2 if kind == "mu" else None


def _wheel_fill(strip: np.ndarray, lo: int, primes: np.ndarray, kind: str) -> None:
    """Fill a strip of the n from lo on with the ``_stride_factor`` of their ``_WHEEL`` powers.

    Their multiples repeat every ``_WHEEL_PERIOD`` entries, so the powers
    are struck on a pattern of one period, which is then broadcast over the
    strip's whole periods and copied into its tail.  The pattern is an
    array of its own: numpy copies a source that overlaps its destination
    to the destination's size.
    """
    rows, size = strip.shape
    span = min(size, _WHEEL_PERIOD)
    pattern = np.ones((rows, span), strip.dtype)
    pair = np.empty((2, 1), strip.dtype) if kind == "phi" else None
    for p, k, start in _strides(lo, lo + span - 1, primes[: len(_WHEEL)], _powers(kind)):
        if k <= _WHEEL[p]:
            pattern[:, start :: p**k] *= _stride_factor(p, k, kind, pair)
    whole = size - size % span
    strip[:, :whole].reshape(rows, -1, span)[...] = pattern[:, None]
    strip[:, whole:] = pattern[:, : size - whole]


def _smooth_mask(lo: int, hi: int, y: float, context: _PassContext) -> np.ndarray:
    """Boolean array over [lo, hi], a segment of context, marking the y-smooth n; y >= 1 or inf.

    Only primes p <= min(y, sqrt(hi)) go into the smooth part.  If
    y >= sqrt(hi), what is left of n is 1 or one prime > sqrt(hi);
    otherwise every prime factor of a leftover > 1 exceeds y.  Either way n
    is smooth iff n / part <= cap = floor(min(y, hi)), that is iff
    part >= ceil(n / cap), or part > (n - 1) // cap: one division by a scalar.
    The part is stripped into the stream's buffer 0, with the stream's primes.
    """
    part = _strip_primes(lo, hi, context.primes(hi, y), out=context.strip(0, lo, hi, 1))
    return _part_is_smooth(part, lo, hi, math.floor(min(y, hi)))


def _part_is_smooth(part: np.ndarray, lo: int, hi: int, cap: int) -> np.ndarray:
    """Whether n / part <= cap for each n in [lo, hi], as part > (n - 1) // cap.

    The test goes ``_READ_BLOCK`` entries at a time, so only the bool
    result has the window's length.
    """
    smooth = np.empty(hi - lo + 1, dtype=bool)
    for start in range(0, smooth.size, _READ_BLOCK):
        stop = min(start + _READ_BLOCK, smooth.size)
        below = np.arange(lo - 1 + start, lo - 1 + stop, dtype=part.dtype)
        below //= cap
        np.greater(part[start:stop], below, out=smooth[start:stop])
    return smooth


def _phi_from_part(rem: np.ndarray, tot: np.ndarray) -> np.ndarray:
    """phi(n) as int64, from rem = n // part and tot = phi(part); overwrites rem.

    The part takes every prime p <= sqrt(n), so rem is 1 or the one prime
    q > sqrt(n) of n, exponent 1, whose factor q - 1 tot still lacks;
    phi(n) <= n keeps the dtype.  The product goes into rem, not into tot,
    which may be a row of a strip that also holds the part.
    """
    rem -= rem > 1
    rem *= tot
    return rem.astype(np.int64, copy=False)


def _reduce_pass(lo: int, hi: int, y: float, shifts: list[int], reduce) -> list:
    """reduce of the windows of each part of the pass over (lo, hi], one result per part, in order.

    The one entry of a pass of shifted totients, for every shift at once;
    lo is the least max(a, 0) over the shifts, and every n - a <= 2^52
    (``_check_pass``).  reduce takes the windows of a part: (s, e, rows)
    for increasing, disjoint windows [s, e] that hold every smooth n of the
    part, with one (idx, phi) row per shift, where s + idx are the y-smooth
    n in [s, e] above max(a, 0) and phi holds phi(n - a) at them.  It
    returns picklable values whose exact sums over the parts are those of
    the whole pass, and writes nothing that its caller reads: a part may
    run in a forked child, whose writes no other process sees.

    ``_generated_smooth`` picks the route once, from the arguments: the
    smooth n multiplied out of the primes up to y, one window per run of
    them (``_generated_phi_segments``), or the sieve, which strips each
    segment of its ``_PassContext`` once, into buffers of the pass, and
    reads it in windows of at most ``_READ_BLOCK`` smooth n
    (``_sieved_pass``).  Every route gives the same integers; only the
    windows differ.  A sieved pass is cut at segment boundaries into one
    part per CPU the process may run on, none of fewer than
    ``_SPLIT_ENTRIES`` n (``_part_ends``).  The parent forks one child per
    part past the first; it reduces the first part itself, and every part
    whose pipe or process could not be made.  Each child reduces its part
    in a context of its own and sends the result, or its error, back
    through a pipe.  A child that fails makes the pass raise, and on any
    way out the parent kills and reaps every child left.  One part, the
    generated route, no ``os.fork`` or a second thread runs the pass in
    this process alone.
    """
    values = _generated_smooth(lo, hi, y, shifts)
    if values is not None:
        return [reduce(_generated_phi_segments(values, shifts))]
    ends = _part_ends(lo, hi)
    parts = list(zip(ends, ends[1:]))
    parent, children = os.getpid(), {}  # part -> (pid, read end) of each child not yet reaped
    try:
        for part in parts[1:]:
            try:
                read, write = os.pipe()
            except OSError:  # too many open files: the parent reduces the part
                continue
            try:
                pid = os.fork()
            except OSError:  # too many processes or too little memory: likewise
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                _reduce_in_child(write, parent, *part, y, shifts, reduce)
            children[part] = pid, read
            os.close(write)
        results = {part: reduce(_sieved_pass(*part, y, shifts)) for part in parts if part not in children}
        for (start, stop), (pid, read) in list(children.items()):
            with os.fdopen(read, "rb", closefd=False) as pipe:
                data = pipe.read()  # to the end: the child has exited, or died
            status = os.waitpid(pid, 0)[1]
            del children[start, stop]
            os.close(read)
            if status != 0 or not data:
                code = os.waitstatus_to_exitcode(status)
                error = f": {data.decode(errors='replace')}" if code > 0 and data else ""
                raise SmoothlabError(f"the process of part ({start}, {stop}] exited with {code}{error}")
            results[start, stop] = pickle.loads(data)
        return [results[part] for part in parts]
    finally:
        for pid, read in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _part_ends(lo: int, hi: int) -> list[int]:
    """The ends lo < c_1 < ... < hi of the parts (lo, c_1], (c_1, c_2], ... of a sieved pass.

    One part per CPU of ``os.sched_getaffinity``, but no more than leave
    each ``_SPLIT_ENTRIES`` n and a segment, cut at the segment boundaries
    of the pass's ``_PassContext``, as many segments in each as the count
    allows, the longer parts last.  A single part when the pass is
    shorter, ``os.fork`` is missing or another thread runs: a fork copies
    only the thread that calls it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = min(cpus, (hi - lo) // _SPLIT_ENTRIES)
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [lo, hi]
    first, last = next(_PassContext(lo + 1, hi).segments())
    step = last - first + 1
    count = -(-(hi - lo) // step)
    parts = min(parts, count)
    return [lo + k * count // parts * step for k in range(parts)] + [hi]


def _reduce_in_child(write: int, parent: int, lo: int, hi: int, y: float, shifts, reduce):
    """In a forked child: write the pickled reduce of the sieved part (lo, hi] to write, and exit.

    It exits with 0 once the result is written.  On an error it writes the
    error's type and text instead, and exits with 1.  It exits through
    ``os._exit``, so nothing of the parent's (its buffered output,
    ``atexit`` or ``finally`` code) runs twice.  The pass stops between
    segments once the parent is gone.
    """
    status = 1
    try:
        try:
            data, code = pickle.dumps(reduce(_sieved_pass(lo, hi, y, shifts, parent))), 0
        except Exception as exc:  # its type and text go to the parent, which raises
            data, code = f"{type(exc).__name__}: {exc}".encode(), 1
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = code
    finally:
        os._exit(status)


def _sieved_pass(lo: int, hi: int, y: float, shifts: list[int], parent: int | None = None):
    """The windows of the sieve route over (lo, hi]: ``_sieve_phi_segment`` of each segment.

    Every segment strips into the buffers of one ``_PassContext``, which
    the first segment sizes and which lives as long as the pass.  A part
    reduced in a child process passes the parent's pid, and raises before
    a segment once its parent is gone.
    """
    context = _PassContext(lo + 1, hi, shifts, rows=2)
    for s, e in context.segments():
        if parent is not None and os.getppid() != parent:
            raise SmoothlabError(f"the process {parent} that split the pass is gone")
        yield from _sieve_phi_segment(s, e, y, shifts, context)


def _sieve_phi_segment(s: int, e: int, y: float, shifts: list[int], context: _PassContext):
    """Yield (ws, we, rows) for the windows [ws, we] of [s, e] that hold a y-smooth n.

    The windows are increasing and disjoint, with one (idx, phi) row per
    shift a: ws + idx are the y-smooth n in [ws, we] above max(a, 0), and
    phi holds phi(n - a) at them.  The segment is stripped once, into the
    buffers of the pass's context, and then read window by
    window, each window whole ``_READ_BLOCK``-entry blocks with at most
    ``_READ_BLOCK`` smooth n, so the reads and their callers' sums hold no
    array of the segment's size.  The n are tested for smoothness once for
    all the shifts, and phi comes from strips alone.  When the shifts and 0
    spread over at most e - s and y >= isqrt(max(e, e - min a)), one strip
    of the union window [min(s, s - max a), max(e, e - min a)] gives the
    smooth n and every phi(n - a), and each window is one block, tested
    for smoothness from the strip as it is read.  Otherwise the mask gives
    the smooth n and the windows (``_mask_windows``), and the shifts with a
    smooth n above max(a, 0) in the segment go in bands of spread at most
    e - s, each with one strip (``_band_strips``); the other shifts strip
    nothing, so a segment with no smooth n sieves its mask alone.  No
    window reaches a value below 1.
    """
    top = max(e, e - min(shifts))
    if max(*shifts, 0) - min(*shifts, 0) <= e - s and y >= math.isqrt(top):
        first = max(1, min(s, s - max(shifts)))
        primes = context.primes(top)
        part, tot = _strip_primes(first, top, primes, "phi", out=context.strip(0, first, top))
        cap = math.floor(min(y, e))
        strips = dict.fromkeys(shifts, (part, tot, first))
        windows = [(ws, min(ws + _READ_BLOCK - 1, e)) for ws in range(s, e + 1, _READ_BLOCK)]

        def smooth(ws, we):
            return _part_is_smooth(part[ws - first : we - first + 1], ws, we, cap)
    else:
        mask = _smooth_mask(s, e, y, context)
        strips = _band_strips(mask, s, e, shifts, context)
        windows = _mask_windows(mask, s)

        def smooth(ws, we):
            return mask[ws - s : we - s + 1]
    no_phi = np.zeros(0, dtype=np.int64)
    for ws, we in windows:
        idx = np.flatnonzero(smooth(ws, we))
        if idx.size:
            yield ws, we, [
                _phi_read(*strips[a], ws, a, _above(idx, ws, a))
                if a in strips
                else (idx[:0], no_phi)
                for a in shifts
            ]


def _mask_windows(mask: np.ndarray, s: int) -> list[tuple[int, int]]:
    """The windows [ws, we] that the smoothness mask of [s, s + mask.size - 1] is read in.

    Each is a run of whole ``_READ_BLOCK``-entry blocks that hold at most
    ``_READ_BLOCK`` smooth n together, so a window's reads stay as small as
    one block's, and a segment with few smooth n is read as one window, not
    one per block, each of which would repeat every shift's steps.
    """
    windows, first, held = [], 0, 0
    for start in range(0, mask.size, _READ_BLOCK):
        count = int(np.count_nonzero(mask[start : start + _READ_BLOCK]))
        if held + count > _READ_BLOCK:
            windows.append((s + first, s + start - 1))
            first, held = start, 0
        held += count
    windows.append((s + first, s + mask.size - 1))
    return windows


def _band_strips(smooth: np.ndarray, s: int, e: int, shifts: list[int], context) -> dict:
    """{a: (part, tot, first)}: a phi strip per shift with a smooth n above max(a, 0) in [s, e].

    smooth marks the y-smooth n of [s, e], the least at s + i and the
    largest at s + j.  Those shifts go in bands of spread at most e - s,
    and band b shares one strip, in the pass's buffer b, of its window
    [s + i - max a, s + j - min a], starting at first.
    """
    if not smooth.any():
        return {}
    i, j = int(smooth.argmax()), e - s - int(smooth[::-1].argmax())
    strips = {}
    for b, band in enumerate(_shift_bands([a for a in shifts if s + j > max(a, 0)], e - s)):
        first, last = max(1, s + i - band[-1]), s + j - band[0]
        primes = context.primes(last)
        part, tot = _strip_primes(first, last, primes, "phi", out=context.strip(b, first, last))
        strips.update(dict.fromkeys(band, (part, tot, first)))
    return strips


def _above(idx: np.ndarray, s: int, a: int) -> np.ndarray:
    """The entries of increasing idx with s + idx > max(a, 0): a view of its tail."""
    return idx[np.searchsorted(idx, max(a, 0) - s, "right") :]


def _shift_bands(shifts: list[int], spread: int) -> list[list[int]]:
    """The distinct shifts, increasing, cut into bands of largest minus least at most spread."""
    bands = []
    for a in sorted(set(shifts)):
        if bands and a - bands[-1][0] <= spread:
            bands[-1].append(a)
        else:
            bands.append([a])
    return bands


def _phi_read(part: np.ndarray, tot: np.ndarray, first: int, s: int, a: int, idx: np.ndarray):
    """(idx, phi(n - a)) at n = s + idx, from a phi strip (part, tot) of a window starting at first.

    n = s sits at entry s - a - first of the window; when that is below 0
    (a shift at or past s), the entries are offset instead of the window.
    """
    start = s - a - first
    window, at = slice(max(start, 0), None), idx if start >= 0 else idx + start
    rem = idx.astype(part.dtype)
    rem += s - a
    rem //= part[window][at]
    return idx, _phi_from_part(rem, tot[window][at])


def _generated_smooth(lo: int, hi: int, y: float, shifts: list[int]):
    """The route of a pass over (lo, hi]: its y-smooth n, generated and increasing, or None.

    None sends the pass to the sieve; this is the one route choice of the
    pass, from its arguments alone.  The n are generated (``_smooth_upto``)
    when their count times the number of shifts times pi(sqrt(hi - min a))
    is below ``SPARSE_PHI_FACTOR`` times hi - lo, where ``_phi_at`` costs
    less than the sieve's masks and strips, and at most
    ``GENERATED_CAPACITY`` n <= hi are y-smooth, which bounds the memory of
    the pass.  The count is taken while generating, which stops past the
    cap, so no psi is counted.  An empty pass sieves at once, and so does
    one whose ``_smooth_floor`` already passes the cap.
    """
    if hi <= lo:
        return None
    primes = _prime_count_bound(math.isqrt(hi - min(shifts)))
    cap = SPARSE_PHI_FACTOR * (hi - lo) / (len(shifts) * primes) if primes else math.inf
    cap = min(GENERATED_CAPACITY, cap)
    if _smooth_floor(hi, y) > cap:
        return None
    values = _smooth_upto(hi, y, cap)
    return None if values is None else values[np.searchsorted(values, lo, "right") :]


def _smooth_floor(top: int, y: float) -> float:
    """A lower bound of Psi(top, y) from its arguments alone, 0 where it says nothing.

    An n <= top that is not y-smooth has a prime p in (y, top] that
    divides it, so Psi(top, y) >= top (1 - S) for any S >= the sum of 1/p
    over those p.  Rosser and Schoenfeld (Illinois J. Math. 6, 1962,
    Theorem 5) bound the sum over p <= t by log log t + B +- 1/(2 log^2 t),
    the upper bound for t >= 286; B cancels.  At y >= sqrt(top) this is
    about 30 % of the n, and at y = 1e3, top = 1.2e6 about 28 %.
    """
    bound = math.floor(min(y, top))
    if top < 286 or bound < 2:
        return 0.0
    log_top, log_y = math.log(top), math.log(bound)
    tail = math.log(log_top / log_y) + 0.5 / log_top**2 + 0.5 / log_y**2
    return max(0.0, top * (1.0 - tail))


def _smooth_upto(top: int, y: float, cap: float):
    """The y-smooth n <= top as an increasing int64 array, or None if more than cap of them exist.

    Multiplied out of the prime powers up to min(y, top), as in D. J.
    Bernstein, *Enumerating and counting smooth integers* (1995): each
    prime p multiplies every value v <= top / p^k by p^k.  The count only
    grows, so it stops once it passes cap; every n <= min(y, top) is
    smooth, so a bound past cap stops it before any prime is sieved.
    """
    bound = math.floor(min(y, top))
    if bound > cap:
        return None
    values = np.ones(1, dtype=np.int64)
    for p in primes_upto(bound).tolist():
        pieces, count = [values], values.size
        layer = values
        while (layer := layer[layer <= top // p] * p).size:
            pieces.append(layer)
            count += layer.size
            if count > cap:
                return None
        values = np.concatenate(pieces)
    values.sort()
    return values


def _generated_phi_segments(values: np.ndarray, shifts: list[int]):
    """The (s, e, rows) windows of a generated pass from its increasing smooth n.

    One window per run of STREAM_SEGMENT // len(shifts) of the n, from the
    run's first n to its last, so a pass up to 2^52 takes no time where it
    has no smooth n, and a window holds at most about ``STREAM_SEGMENT``
    totients: one ``_phi_at`` per shift, at its n above max(a, 0).
    """
    run = max(1, STREAM_SEGMENT // len(shifts))
    for start in range(0, values.size, run):
        chunk = values[start : start + run]
        s = int(chunk[0])
        idx = chunk - s
        picks = [(a, _above(idx, s, a)) for a in shifts]
        yield s, int(chunk[-1]), [(pick, _phi_at(pick + (s - a))) for a, pick in picks]


def _factor_at(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, primes), int64: one pair per distinct prime p of values[at], for values in [1, 2^52].

    The pairs come in no set order.  The values are tested against blocks
    of the primes up to min(sqrt(max), ``_TRIAL_PRIMES``), of about
    ``_TRIAL_BLOCK`` residues each, and a remainder is dropped once below
    (q + 1)^2 after a block ending at q.  One still live after 2^18 is a
    prime (Miller-Rabin), p^2 or p q (``_split_semiprime``).
    """
    values = np.asarray(values)
    top = int(values.max(initial=1))
    rem = values.astype(_window_dtype(top))
    live = np.arange(values.size)
    root = math.isqrt(top)
    primes = primes_upto(min(root, _TRIAL_PRIMES))
    pairs = []
    j = 0
    while j < primes.size and live.size:
        block = primes[j : j + max(1, _TRIAL_BLOCK // live.size)].astype(rem.dtype)
        j += block.size
        # One flat read of the primes x values hits: hit // live.size is
        # the prime's entry in block, hit % live.size the value's in live.
        which, where = np.divmod(np.flatnonzero(rem[live] % block[:, None] == 0), live.size)
        at, p = live[where], block[which]
        pairs.append((at, p))
        # ufunc.at applies repeated indices one by one, and a value may have
        # several primes in one block.
        while at.size:
            np.floor_divide.at(rem, at, p)
            again = (rem[at] % p == 0) & (rem[at] > 0)  # a 0 would divide forever
            at, p = at[again], p[again]
        live = live[rem[live] >= (int(block[-1]) + 1) ** 2]
    if root > _TRIAL_PRIMES:
        split = []
        for i, r in zip(live.tolist(), rem[live].tolist()):
            if not _is_prime(r):
                p = _split_semiprime(r)
                split += [(i, p)] if r == p * p else [(i, p), (i, r // p)]
        at, p = np.array(split, dtype=np.int64).reshape(-1, 2).T
        rem[at] = 1
        pairs.append((at, p))
    big = np.flatnonzero(rem > 1)  # one prime left, exponent 1
    pairs.append((big, rem[big]))
    ats, found = zip(*pairs)
    return np.concatenate(ats), np.concatenate(found).astype(np.int64, copy=False)


def _phi_at(values: np.ndarray) -> np.ndarray:
    """Euler totient at each entry of an integer array of values in [1, 2^52], as int64."""
    phi = np.array(values, dtype=np.int64)
    return _phi_of_pairs(phi, *_factor_at(phi))


def _phi_of_pairs(phi: np.ndarray, at: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Overwrite int64 values n with phi(n) = n / prod p * prod(p - 1) over their pairs."""
    np.floor_divide.at(phi, at, primes)
    np.multiply.at(phi, at, primes - 1)
    return phi


def _prime_lists(at: np.ndarray, primes: np.ndarray, size: int, bound: float) -> list[list[int]]:
    """The distinct primes p <= bound of each of ``size`` values, increasing, from their pairs."""
    lists = [[] for _ in range(size)]
    keep = primes <= bound
    for i, p in sorted(zip(at[keep].tolist(), primes[keep].tolist())):
        lists[i].append(p)
    return lists


def _modulus_primes(d: int, bound: float) -> list[int]:
    """The distinct primes p <= bound of a modulus d >= 1 of any size, increasing.

    A d past 2^52 first loses its primes up to min(bound, 2^18); for a
    larger bound, what is left must be at most 2^52, or it is a
    CapacityError, raised before any other table is made.
    """
    small, rest = [], d
    if d > MAX_SIEVE_BOUND:
        small = [p for p in map(int, primes_upto(int(min(bound, _TRIAL_PRIMES)))) if d % p == 0]
        for p in small:
            while rest % p == 0:
                rest //= p
        if bound <= _TRIAL_PRIMES:
            return small
        if rest > MAX_SIEVE_BOUND:
            raise CapacityError(f"modulus {d} leaves {rest} past 2^52 after its primes up to 2^18")
    return small + _prime_lists(*_factor_at(np.array([rest], dtype=np.int64)), 1, bound)[0]


def _split_semiprime(n: int) -> int:
    """A prime factor of n = p q or p^2 with primes p, q: isqrt, then Pollard-Brent.

    Pollard-Brent runs from fixed seeds c = 1, 2, ... and takes the next one
    when a cycle closes on n itself; its found factor of a product of two
    primes is one of them.
    """
    root = math.isqrt(n)
    if root * root == n:
        return root
    for c in itertools.count(1):
        factor = _pollard_brent(n, c)
        if factor != n:
            return factor


def _pollard_brent(n: int, c: int) -> int:
    """A factor of the composite odd n from the walk x -> x^2 + c (mod n): n on failure.

    Brent's cycle search (BIT 20, 1980): the walk saves its point at every
    power of two and compares each later step with it, so the gcd turns up
    a prime factor p of n after about sqrt(p) steps.  The differences of
    up to ``_BRENT_BLOCK`` steps are multiplied mod n and take one gcd; a
    block whose gcd is not 1 is walked again one gcd per step, so the
    factor returned is the one of the first step whose gcd is not 1.
    """
    x, r = 2, 1
    while True:
        saved = x
        for done in range(0, r, _BRENT_BLOCK):
            start, product = x, 1
            for _ in range(min(_BRENT_BLOCK, r - done)):
                x = (x * x + c) % n
                product = product * (x - saved) % n
            if math.gcd(product, n) != 1:
                x = start
                while (g := math.gcd((x := (x * x + c) % n) - saved, n)) == 1:
                    pass
                return g
        r *= 2


def _is_prime(n: int) -> bool:
    """Whether n >= 1 is prime, by Miller-Rabin with ``_MILLER_RABIN_BASES``; exact below 3.8e18."""
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    if n < 2:
        return False
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _MILLER_RABIN_BASES:
        t = pow(base, odd, n)
        if t in (1, n - 1):
            continue
        for _ in range(twos - 1):
            t = t * t % n
            if t == n - 1:
                break
        else:
            return False
    return True


def _mu_segment(lo: int, hi: int, primes: np.ndarray, out=None) -> np.ndarray:
    """Moebius mu of every n in [lo, hi], from the primes up to sqrt(hi), in the window's dtype.

    The mu strip of ``_strip_primes`` holds r = mu(part) part, 0 where a
    prime p^2 divides n.  What is left of n is 1 or one prime above
    sqrt(hi), so mu(n) is sign(r), negated exactly where |r| < n, written
    over r ``_READ_BLOCK`` entries at a time.  The strip is ``out``, a
    (1, hi - lo + 1) array in the window's dtype, or a new one.
    """
    row = _strip_primes(lo, hi, primes, "mu", out)
    for start in range(0, row.size, _READ_BLOCK):
        r = row[start : start + _READ_BLOCK]
        flip = np.abs(r) < np.arange(lo + start, lo + start + r.size, dtype=row.dtype)
        np.sign(r, out=r)
        r *= 1 - 2 * flip.view(np.int8)  # 1 or -1, one byte per entry
    return row


def is_smooth(n: int, y: float) -> bool:
    """True iff every prime factor of n is <= y; n = 1 is vacuously smooth."""
    y = _check_y(y)
    return largest_prime_factor(n) <= y


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of 1 <= n <= 2^52 (``_factor_at``); returns 1 for n = 1."""
    n = _check_int(n, "n")
    if not 1 <= n <= MAX_SIEVE_BOUND:
        raise DomainError(f"n must lie in [1, 2^52], got {n}")
    return int(_factor_at(np.array([n], dtype=np.int64))[1].max(initial=1))


def _tau_omega(lo: int, hi: int, primes: np.ndarray, strip=None):
    """Divisor counts tau(n) and distinct-prime counts omega(n) on [lo, hi], by primes <= sqrt(hi).

    Returns the rows (tau, omega) of strip, a (4, hi - lo + 1) array in the
    window's dtype that it overwrites, or of a new one; its rows 2 and 3
    hold ``before`` and the part.  The window is the shifted [s - a, e - a]
    of a segment of a pass that ``_check_pass`` admitted, so it holds at
    most ``STREAM_SEGMENT`` entries.  Ahead of p's strides, ``before`` keeps
    tau(n); after the p^(k-1) stride tau(n) is before * k, and the p^k
    stride adds before, so tau(n) ends as the product of (e + 1) over the
    exponents e of n.  The n with a prime above sqrt(hi) are those whose
    ``_strip_primes`` part over the primes <= sqrt(hi) falls short of n,
    found ``_READ_BLOCK`` entries at a time.
    """
    size = hi - lo + 1
    if strip is None:
        strip = np.empty((4, size), _window_dtype(hi))
    tau, omega, before, part = strip
    tau.fill(1)
    omega.fill(0)
    for p, k, start in _strides(lo, hi, primes):
        if k == 1:
            omega[start::p] += 1
            before[start::p] = tau[start::p]
        tau[start :: p**k] += before[start :: p**k]
    _strip_primes(lo, hi, primes, out=strip[3:])
    for start in range(0, size, _READ_BLOCK):
        stop = min(start + _READ_BLOCK, size)
        # A part short of n leaves one prime > sqrt(hi), exponent 1: tau doubles.
        big = part[start:stop] < np.arange(lo + start, lo + stop, dtype=part.dtype)
        tau[start:stop] <<= big
        omega[start:stop] += big
    return tau, omega
