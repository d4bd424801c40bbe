"""Exact counting and enumeration of smooth numbers.

All counting ranges are half-open on the left: a function taking (lo, hi)
counts integers n with lo < n <= hi.  Smoothness bounds y are real valued
and never rounded; for y < 2 only n = 1 qualifies.

``psi`` and ``psi_coprime`` sieve nothing: they read one exact count over
the quotient set V(x) = {floor(x / n) : n >= 1}, about 2 sqrt(x) values
(``_psi_quotients``).  For y >= sqrt(x) it takes Lucy's prime counts pi(v)
on V and psi(v, y) = v - sum over primes y < q <= v of floor(v / q); for
smaller y it runs one Buchstab update per prime p <= y.  Either way each
prime p touches only the v >= p^2 of V, so Psi(1e12, 100) takes well under
a second.  Psi_d(x, y), the y-smooth n <= x coprime to d, is the sum of
mu(e) Psi(x / e, y) over the squarefree e made of d's primes up to min(y,
x) (``sieve._modulus_primes``), read from the same count (``_coprime_counts``,
for ``psi_coprime`` and ``ftratio``), admitted up front (``_check_quotient``).

The other counts read the smooth n of one sieve segment at a time, in int32
below 2^31 (``_segment_values``), so their memory does not grow with x.
``_smooth_values`` alone holds a whole set, of a span up to 2^27: 4 bytes
per smooth n, in an int32 array sized from psi and filled segment by
segment, which checks the sieve against the quotient count.
"""

import itertools
import math

import numpy as np

from .errors import CapacityError, DomainError, SmoothlabError
from .sieve import (
    _check_int, _check_modulus, _check_quotient, _check_range, _check_terms, _check_x, _check_y,
    _modulus_primes, _PassContext, _smooth_mask, _window_dtype, primes_upto,
)

#: Upper limit for the recursive test oracle.
ENUM_ORACLE_LIMIT = 10**7

#: Largest span ``_smooth_values`` will materialize, and most moduli
#: ``shifted.t_via_mobius`` takes: it holds a 1-byte indicator of each.
MAX_MATERIALIZED_SPAN = 1 << 27


class SmoothRange:
    """The y-smooth integers of [first, last] as one increasing int64 array.

    ``values`` is joined once from the int32 segments of ``_segment_values``
    below 2^31, so the build peaks at 1.5 times the int64 values, not 2.
    A span past ``MAX_MATERIALIZED_SPAN`` is a CapacityError, raised before
    anything is allocated.  Read-only and safe to share between threads.
    No command builds one.
    """

    def __init__(self, first: int, last: int, y: float):
        y, first = _check_y(y), _check_int(first, "first")
        _, last = _check_range(first - 1, last)
        if last < first:
            raise DomainError(f"empty range [{first}, {last}]")
        if last - first >= MAX_MATERIALIZED_SPAN:
            raise CapacityError(f"range [{first}, {last}] too large to materialize")
        segments = _segment_values(first - 1, last, y)
        values = np.concatenate([np.empty(0, np.int64), *segments], dtype=np.int64)
        values.setflags(write=False)
        self.values = values


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


def _segment_values(lo: int, hi: int, y: float):
    """The y-smooth n in (lo, hi], lo >= 0, one increasing array per segment, int32 below 2^31."""
    context = _PassContext(lo + 1, hi)
    for s, e in context.segments():
        # Every n of the window fits its dtype, so the cast is exact, and no
        # int64 copy stays alive while the next segment is sieved.
        idx = np.flatnonzero(_smooth_mask(s, e, y, context))
        yield np.add(idx, s, dtype=_window_dtype(e), casting="unsafe")


def _smooth_values(top: int, y: float) -> np.ndarray:
    """The y-smooth n <= top as one increasing array, int32 when top < 2^31: 4 bytes per n.

    A top past ``MAX_MATERIALIZED_SPAN`` is a CapacityError, raised before
    anything is allocated.  One segment's values are returned as they
    are.  A longer range is sized from Psi(top, y), read from the quotient
    count (``psi``, at most 0.02 s at 2^27 for any y), and filled segment
    by segment, so no list of segments is joined; a fill that does not end
    at exactly Psi raises, which checks the sieve against the count.
    """
    if top > MAX_MATERIALIZED_SPAN:
        raise CapacityError(f"range [1, {top}] too large to materialize")
    segments = _segment_values(0, top, y)
    head = [next(segments), next(segments, None)]
    if head[1] is None:
        return head[0]
    values = np.empty(psi(top, y), _window_dtype(top))
    stop = 0
    for chunk in itertools.chain(head, segments):
        start, stop = stop, stop + chunk.size
        if stop > values.size:
            break
        values[start:stop] = chunk
    if stop != values.size:
        raise SmoothlabError(
            f"the sieve does not find the Psi({top}, {y:g}) = {values.size} smooth n"
        )
    return values


def psi(x: float, y: float) -> int:
    """Exact count of y-smooth integers n with 1 <= n <= x."""
    y = _check_y(y)
    top = _check_x(x)
    return int(_psi_quotients(top, y, [1])[0])


def _psi_quotients(top: int, y: float, es) -> np.ndarray:
    """Psi(top // e, y) for each e in 1..top of es, in int64, from one count over V(top).

    The es may repeat and come in any order.  V(top) = {top // n} is held as
    two int64 tables of r + 1 entries, r = isqrt(top): ``small[v]`` for the
    values v <= r and ``large[k]`` for the value top // k, k <= r.  Every
    top // e is in V, and so is floor(v / m) for every v in V.  With cap =
    floor(min(y, top)), cap < 2 counts only n = 1 and cap >= top every n,
    and neither builds V; any other count is admitted first
    (``_check_quotient``).
    """
    es = np.asarray(es, dtype=np.int64)
    values = top // es
    cap = math.floor(min(y, top))
    if cap < 2 or cap >= top:
        return np.minimum(values, 1) if cap < 2 else values
    _check_quotient(top, y)
    r = math.isqrt(top)
    if cap < r:
        small, large = _buchstab_counts(top, cap)
        in_large = es <= r
        values[in_large] = large[es[in_large]]
        values[~in_large] = small[values[~in_large]]
        return values + 1
    small, large = _prime_counts(top)
    # pi(cap) for the primes q > cap: cap is in V(top) or has its own table.
    if cap == r:
        pi_cap = int(small[r])
    elif top // (top // cap) == cap:
        pi_cap = int(large[top // cap])
    else:
        pi_cap = int(_prime_counts(cap)[1][1])
    # A v <= cap counts every n <= v; each distinct e above is counted once.
    big = np.flatnonzero(values > cap)
    terms = es[big].tolist()
    counts = dict.fromkeys(terms)
    for e in counts:
        # Every prime q > cap >= r exceeds sqrt(v), so each n <= v that is
        # not cap-smooth has one such q, and the sum over q of floor(v / q)
        # is the sum of pi(v // j) - pi(cap) over the j with v // j > cap,
        # j <= jmax.  e jmax <= top / (cap + 1) < r + 1, so each v // j =
        # top // (e j) is large[e j].
        v = top // e
        jmax = v // (cap + 1)
        counts[e] = v - int(large[e : e * jmax + 1 : e].sum()) + jmax * pi_cap
    values[big] = [counts[e] for e in terms]
    return values


def _quotients(top: int) -> np.ndarray:
    """top // k at index k = 1..isqrt(top), and top at index 0, in int64."""
    return top // np.maximum(np.arange(math.isqrt(top) + 1, dtype=np.int64), 1)


def _prime_counts(top: int):
    """(small, large): pi(v) at v = small's index <= r, and pi(top // k) at large[k], k >= 1.

    Lucy's sieve: S(v) starts as v - 1 and, for each prime p <= r in turn,
    S(v) -= S(v // p) - pi(p - 1) at every v >= p^2, with S read as it stood
    before p; it ends as pi(v).  Both updates of a prime read the old small
    table, so the large one runs first.
    """
    quotients = _quotients(top)
    r = quotients.size - 1
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    large = quotients - 1
    for i, p in enumerate(primes_upto(r).tolist()):
        kmax = min(r, top // (p * p))
        kb = min(kmax, r // p)  # k <= kb read large[k p]; above, k p > r reads small
        large[1 : kb + 1] -= large[p : kb * p + 1 : p] - i
        large[kb + 1 : kmax + 1] -= small[quotients[kb + 1 : kmax + 1] // p] - i
        if p * p <= r:
            # v // p over v = p^2..r is p, p, ..., p + 1, ...: each small entry p times.
            small[p * p :] -= np.repeat(small[p : r // p + 1] - i, p)[: r + 1 - p * p]
    return small, large


def _buchstab_counts(top: int, cap: int):
    """(small, large): psi(v, cap) - 1 at each v of V(top), laid out as in ``_prime_counts``.

    cap < r = isqrt(top).

    F(v) counts the cap-smooth n in [2, v] whose least prime is at least
    p_k, plus the k - 1 primes below p_k.  It starts, past the last prime,
    as pi(min(v, cap)), which it stays wherever v < p_k^2: such an n is a
    prime.  Going down the primes p = p_k <= cap, Buchstab's identity
    gives F(v) += F(v // p) - (k - 1) at every v >= p^2, ascending, with
    F(v // p) already updated for p: the v in [p^j, p^(j+1)) read those in
    [p^(j-1), p^j).  At p_1 = 2, F(v) = psi(v, cap) - 1.
    """
    quotients = _quotients(top)
    r = quotients.size - 1
    primes = primes_upto(cap)
    small = np.zeros(r + 1, dtype=np.int64)
    small[primes] = 1
    np.cumsum(small, out=small)
    large = np.full(r + 1, primes.size, dtype=np.int64)
    for c in range(primes.size - 1, -1, -1):
        p = int(primes[c])
        lo = p * p
        while lo <= r:
            hi = min(lo * p, r + 1)
            small[lo:hi] += np.repeat(small[lo // p : (hi - 1) // p + 1] - c, p)[: hi - lo]
            lo = hi
        kmax = min(r, top // (p * p))
        kb = min(kmax, r // p)
        large[kb + 1 : kmax + 1] += small[quotients[kb + 1 : kmax + 1] // p] - c
        # large[k] reads large[k p], a smaller value: k descends in blocks
        # whose sources lie above the block.
        hi = kb
        while hi >= 1:
            lo = hi // p + 1
            large[lo : hi + 1] += large[lo * p : hi * p + 1 : p] - c
            hi = lo - 1
    return small, large


def psi_enum_oracle(x: float, y: float) -> int:
    """Count smooth numbers by generating prime-power products directly.

    Independent of the sieve machinery; intended as a cross-check at test
    scale (x <= 10^7).
    """
    y = _check_y(y)
    top = _check_x(x)
    if x > ENUM_ORACLE_LIMIT:
        raise CapacityError(f"oracle limited to x <= {ENUM_ORACLE_LIMIT}")

    # The primes up to min(y, x), from a sieve of its own: a y past x needs no more.
    bound = math.floor(min(y, top))
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    primes = list(itertools.compress(range(bound + 1), flags))

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
    """Exact count of y-smooth n <= x with gcd(n, d) = 1.

    A d past 2^52 may be refused when min(y, x) > 2^18 (``sieve._modulus_primes``).
    """
    y = _check_y(y)
    d = _check_modulus(d)
    top = _check_x(x)
    return _coprime_counts(top, y, [_modulus_primes(d, min(y, top))])[1][0]


def _coprime_counts(top: int, y: float, prime_lists) -> tuple[int, list[int]]:
    """Psi(top, y) and, for each of one or more lists of d's primes, Psi_d(top, y).

    One quotient count reads every term (e, mu(e)) of every list's
    ``_moebius_terms`` as given, repeats included.  Each list leads with its
    one e = 1, so Psi_d sums the signed counts from one e = 1 to the next.
    """
    es, mus = map(np.concatenate, zip(*(_moebius_terms(primes, top) for primes in prime_lists)))
    signed = _psi_quotients(top, y, es) * mus
    return int(signed[0]), np.add.reduceat(signed, np.flatnonzero(es == 1)).tolist()


def _moebius_terms(primes: list[int], top: int) -> tuple[np.ndarray, np.ndarray]:
    """(es, mus): each squarefree e <= top whose primes are among ``primes``, and mu(e).

    An e > top adds nothing.  Below 2^52 a d has at most 13 primes, so
    8,192 terms; a larger d may have more, and ``_check_terms`` admits each
    doubling before it is made.  The sum of |mu(e)| Psi(x / e, y) is at
    most x times the product of 1 + 1/p over the primes, below 2^58, so
    it stays exact in int64.
    """
    es = np.ones(1, dtype=np.int64)
    mus = np.ones(1, dtype=np.int8)
    for p in primes:
        keep = es <= top // p
        _check_terms(es.size + int(np.count_nonzero(keep)))
        es = np.concatenate([es, es[keep] * p])
        mus = np.concatenate([mus, -mus[keep]])
    return es, mus


def psi_progression(lo: int, hi: int, y: float, a: int, d: int) -> int:
    """Exact count of y-smooth n in (lo, hi] with n congruent to a mod d."""
    y = _check_y(y)
    d = _check_modulus(d)
    a = _check_int(a, "residue") % d
    lo, hi = _check_range(lo, hi)
    return sum(int(np.count_nonzero(_residues(v, d) == a)) for v in _segment_values(lo, hi, y))
