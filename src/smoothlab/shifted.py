"""Shifted-totient sums over smooth numbers and their identity cross-checks.

For a nonzero integer shift a, the two quantities of interest are

    T(x, y) = sum of phi(n - a) / (n - a)   over smooth n in (max(a,0), floor(x)]
    V(x, y) = (1 / Psi(x, y)) * sum of phi(n - a)   over the same n,

together with three independent evaluation routes used to cross-check them:
a truncated Moebius expansion of T (phi(k)/k = sum over d | k of mu(d)/d),
a partial-summation identity for V built from T's steps at the smooth n,
and the quadrature integral I(x, y) = integral of t * rho(log t /
log y) with its leading-term comparator x^2 rho(u) / 2.  I is taken in
v = log t / log y on fixed Gauss-Legendre panels (32 points, with the
16-point rule for the error estimate), cut at every integer where rho has
its kinks and split further where y^(2v) grows fast; the nodes come from
numpy, so the module needs no scipy.

T and V come from one pass over (max(a,0), floor(x)], and one pass serves
a whole list of shifts.  Every T/V pass reduces through
``sieve._reduce_pass``: each consumer (``_shifted_totals`` for ``tsum``
and ``scan``, ``_v_parts`` for ``vsum``, ``t_exact``, ``v_via_abel`` and
the Moebius split's T pass) gives it a reducer of the pass's windows to
exact integer sums.  The pass finds the smooth n of each window once and
gives phi(n - a) at them for every shift.  It picks its route itself,
generated smooth n at small y (one window per run of them) or the sieve
(strips per segment, reads per window of at most 2^14 smooth n), and it
runs each part of a long sieved pass in a process of its own; every route
gives the same integers and the parts' sums add up to the pass's, so
neither the route nor the split changes a result.
``aux_averages`` walks the segments of a ``sieve._PassContext`` of its
own: ``_smooth_mask``, then ``_tau_omega`` of the shifted segment into
rows of the context's buffer, read at the smooth n.  The Moebius split
rides on the same pass, so each n is tested for smoothness once: its
reducer sums T and packs the marks of n - a at each window's smooth n, 1
bit each, one pack per 2^17 k, and after the pass each pack is ORed into
a bool indicator, 1 byte per modulus, and dropped.  It counts the
multiples of each modulus in the indicator one segment of moduli at a
time (a context of its own too, ``_multiple_counts``), and reads the
terms of each segment in windows of ``_READ_BLOCK`` (2^14) moduli, so
beside the indicator only the segment's int32 counts and mu strip have
its size.
Float terms are summed exactly (``_exact_int``) and rounded once
(``_round_exact``), so T, V by partial summation and the Moebius split do
not depend on the windows, the term order or the other shifts of the pass.
The same exactness lets one pass serve a whole grid of x: T at each x is
the running exact integer of the terms so far, rounded at that cut.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .census import psi
from .dickman import RhoTable, rho, rho_log
from .errors import AccuracyError, DomainError
from .sieve import (
    _READ_BLOCK, _check_pass, _check_split, _mu_segment, _PassContext, _reduce_pass, _smooth_mask,
    _tau_omega, _to_float,
)

#: 6 / pi^2, the reciprocal of zeta(2), from the double-precision pi literal.
ZETA2_INV = 6.0 / (math.pi * math.pi)

#: Terms per slice of ``_exact_int``.  The highs of a band sum to at most
#: 2^50 units of 2^-36 and its lows to at most 2^45 units of 2^-68, so
#: both float sums stay exact.  2^14 terms keep each slice's float64
#: temporaries (128 KiB apiece) in the L2 cache: on 2^18 terms that took
#: ``_exact_int`` from 7.3 to 2.5 ms on the 2-core reference box, against
#: 2^20-term slices.
_EXACT_SLICE = 1 << 14

#: Binades of |terms| that one band of ``_exact_int`` takes.
_SPLIT_BINADES = 16

#: ``_exact_int`` counts in units of 2^-1126; ``_round_exact`` divides by this.
_EXACT_UNIT = 1 << 1126

_E = math.e


def _head_psi(x: float, y: float, a: int) -> int:
    """Psi(min(x, a), y), 0 for a < 0: the smooth n <= x that a shifted pass skips.

    With the smooth n of the pass, it makes Psi(x, y).
    """
    return psi(min(x, a), y) if a > 0 else 0


def _t_terms(a: int, s: int, idx: np.ndarray, phi_at: np.ndarray) -> np.ndarray:
    """phi(n - a) / (n - a) at the smooth n = s + idx."""
    return phi_at / (idx + (s - a)).astype(np.float64)


def _int_sum(values: np.ndarray, top: int) -> int:
    """The exact sum of an int64 array whose entries are at most top.

    It sums in int64 when len(values) * top cannot reach 2^63, which holds
    for every window below 2^31, and in Python integers otherwise: 2^11
    totients near 2^52 would wrap.
    """
    if values.size * top < 2**63:
        return int(values.sum())
    return sum(values.tolist())


def _v_parts(x: float, y: float, a: int) -> tuple[float, int]:
    """(V(x, y), Psi(x, y)) from one pass, which leaves out T's terms and their sum.

    The sum of phi(n - a) is an exact integer; only its division by Psi rounds.
    """
    a, y = _check_pass(x, y, a)
    psi_value = _head_psi(x, y, a)

    def reduce(windows):
        count = numerator = 0
        for _s, e, [(idx, phi_at)] in windows:
            count += idx.size
            numerator += _int_sum(phi_at, e - a)
        return count, numerator

    count, numerator = map(sum, zip(*_reduce_pass(max(a, 0), math.floor(x), y, [a], reduce)))
    psi_value += count
    return numerator / psi_value, psi_value


def _shifted_totals(xs, y: float, shifts) -> list[list[tuple[int, float, float]]]:
    """(Psi(x, y), T(x, y), V(x, y)) at each x of a strictly increasing list, for each shift.

    One pass up to the last x serves every shift: the smooth n are found
    once, and each shift reads phi(n - a) at those above max(a, 0).  xs out
    of order raise, and every (x, a) goes through ``_check_pass`` before
    the pass.  The pass is reduced part by part (``sieve._reduce_pass``)
    to the exact count, sum of phi and T of each shift between cuts
    floor(x) (``_interval_sums``), and the parts add up to the pass's.  At
    each cut a shift's running sums are read, and its T's running exact
    integer is rounded there: the correctly rounded sum of the same terms,
    so the same float that a pass of that shift up to that x alone gives.
    The rows come per shift, in the order given.
    """
    if not all(u < v for u, v in zip(xs, xs[1:])):
        raise DomainError("xs must be strictly increasing")
    for x in xs:
        checked = [_check_pass(x, y, a) for a in shifts]
    shifts, y = [a for a, _y in checked], checked[0][1]
    heads = [_head_psi(xs[-1], y, a) for a in shifts]
    cuts = [math.floor(x) for x in xs]
    reduce = functools.partial(_interval_sums, shifts, cuts)
    parts = _reduce_pass(min(max(a, 0) for a in shifts), cuts[-1], y, shifts, reduce)
    rows = []
    for j, (a, head) in enumerate(zip(shifts, heads)):
        sums, row = [0, 0, 0], []  # count, numerator, exact T
        for i, cut in enumerate(cuts):
            for part in parts:
                sums = [u + v for u, v in zip(sums, part[j][i])]
            count, numerator, total = sums
            # A cut below a > 0 has no terms; every other cut shares the pass's head.
            psi_value = (psi(cut, y) if cut < a else head) + count
            row.append((psi_value, _round_exact(total), numerator / psi_value))
        rows.append(row)
    return rows


def _interval_sums(shifts: list[int], cuts: list[int], windows) -> list[list[list[int]]]:
    """[count, sum of phi, exact T] of each shift's terms in each interval (c_{i-1}, c_i] of cuts.

    The windows are those of a pass, or of one part of it, up to cuts[-1];
    the first interval is everything up to cuts[0].  Each sum is an exact
    integer (T in units of ``_exact_int``), so the intervals of the parts
    add up to the pass's.
    """
    sums = [[[0, 0, 0] for _ in cuts] for _ in shifts]
    for s, e, parts in windows:
        first, last = bisect.bisect_left(cuts, s), bisect.bisect_left(cuts, e)
        for a, (idx, phi_at), intervals in zip(shifts, parts, sums):
            terms = _t_terms(a, s, idx, phi_at)
            done = 0
            for i in range(first, last + 1):
                stop = idx.size if i == last else int(np.searchsorted(idx, cuts[i] - s, "right"))
                cell = intervals[i]
                cell[0] += stop - done
                cell[1] += _int_sum(phi_at[done:stop], e - a)
                cell[2] += _exact_int(terms[done:stop])
                done = stop
    return sums


def _exact_int(chunk: np.ndarray) -> int:
    """The exact sum of the finite float64 values of chunk, in units of 2^-1126.

    The sum goes slice by slice (``_EXACT_SLICE`` terms) into one Python
    integer in units of 2^-1126, below the smallest subnormal 2^-1074.
    Such integers add exactly, and ``_round_exact`` rounds their sum to the
    float ``math.fsum`` gives, without boxing a term.

    A slice goes band by band: a band holds the terms still left with |t|
    in [2^(e - 16), 2^e), e the binade of the largest, and the other terms
    are zeroed (a mask product, not a gather).  Scaled by 2^-e (exact) the
    band lies in [2^-16, 1), and each term splits exactly at sigma =
    1.5 * 2^16 (Rump, Ogita and Oishi's extraction): high = (t + sigma) -
    sigma is t rounded to a multiple of 2^-36, at most 1, and low = t - high
    is at most 2^-37 on the grid of the smallest term, 2^-68 or coarser.
    So both float sums are exact in any order, and each is a multiple of
    2^-(1126 + e): shifted by 1126 + e bits it is an integer.
    """
    sigma = 1.5 * 2.0**_SPLIT_BINADES
    total = 0
    for start in range(0, chunk.size, _EXACT_SLICE):
        part = chunk[start : start + _EXACT_SLICE]
        magnitude = np.abs(part)
        while (top := float(magnitude.max(initial=0.0))) > 0.0:
            e = math.frexp(top)[1]
            # A taken term's magnitude is zeroed, so the floor keeps it out.
            band = magnitude >= max(math.ldexp(1.0, e - _SPLIT_BINADES), 5e-324)
            whole = band.all()
            scaled = np.ldexp(part if whole else part * band, -e)
            high = scaled + sigma
            high -= sigma
            for value in (float(high.sum()), float((scaled - high).sum())):
                num, den = value.as_integer_ratio()
                total += (num << (1126 + e)) // den
            if whole:
                break
            magnitude *= ~band
    return total


def _round_exact(total: int) -> float:
    """The float nearest a sum of ``_exact_int`` values: one int/int true division."""
    return total / _EXACT_UNIT


def t_exact(x: float, y: float, a: int) -> float:
    """T(x, y): sum of phi(n - a)/(n - a) over smooth n in (max(a,0), floor(x)].

    Each term is one correctly rounded division, and the terms stream
    window by window into an exact sum that is rounded once (``_exact_int``),
    so the result is the float that math.fsum of the terms gives, memory
    does not grow with x, and the parts of the pass (``sieve._reduce_pass``)
    add up to it.  No psi is counted, so a shift a near x costs only
    its terms.
    """
    a, y = _check_pass(x, y, a)

    def reduce(windows):
        return sum(_exact_int(_t_terms(a, s, idx, phi_at)) for s, _e, [(idx, phi_at)] in windows)

    return _round_exact(sum(_reduce_pass(max(a, 0), math.floor(x), y, [a], reduce)))


@dataclass(frozen=True)
class MobiusSplit:
    """Truncated Moebius expansion of T at cutoff delta.

    sigma1 collects moduli d <= delta, sigma2 the tail above; their sum
    equals T(x, y) whenever the tail range covers every divisor of n - a.
    t is T(x, y) from the same pass, and count the number of smooth n in
    (max(a,0), floor(x)], whose n - a the split counts.
    """

    sigma1: float
    sigma2: float
    delta_used: float
    t: float
    count: int

    @property
    def total(self) -> float:
        return self.sigma1 + self.sigma2


def _multiple_counts(g: np.ndarray, s: int, e: int, mu: np.ndarray) -> np.ndarray:
    """c_d = #{j >= 1 : g[j d]} for each d in [s, e], from a bool indicator g of a set in [1, n].

    n = g.size - 1 and mu holds mu(d) on [s, e]; the counts are int32 and
    not defined at the d with mu(d) = 0.  A d <= sqrt(n) with mu(d) != 0
    counts its multiples with one strided ``count_nonzero``.  The d above
    sqrt(n) have fewer than sqrt(n) multiples each, so they go the other
    way: for each j, one strided add of g[j d] over every d of the segment
    with j d <= n.  That is about n ln n reads in all, where sieving g into
    the counts prime by prime takes about n ln ln n, but it needs no primes
    and no copy of g.
    """
    n = g.size - 1
    root = math.isqrt(n)
    counts = np.zeros(e - s + 1, dtype=np.int32)
    for d in (np.flatnonzero(mu[: max(root - s + 1, 0)]) + s).tolist():
        counts[d - s] = np.count_nonzero(g[d::d])
    lo = max(s, root + 1)
    if lo > e:
        return counts
    flags = g.view(np.int8)
    for j in range(1, n // lo + 1):
        hi = min(e, n // j)
        counts[lo - s : hi - s + 1] += flags[j * lo : j * hi + 1 : j]
    return counts


def t_via_mobius(x: float, y: float, a: int, delta: float) -> MobiusSplit:
    """Evaluate T through progression counts: sum over d of mu(d)/d * #{n = a mod d}.

    The moduli run to floor(x) - a for either sign of a: every n - a lies in
    [1, floor(x) - a], so no count above that is nonzero.  One pass over the
    windows, the one that T takes, sums T and packs the marks of the values
    n - a of each window's smooth n, 1 bit each, one pack per 2^17 k (8
    ``_READ_BLOCK``): a part reduced in a child process
    (``sieve._reduce_pass``) returns its packs as the parent's own does.
    After the pass each pack is ORed whole into a bool indicator and
    dropped: 1 byte per modulus for every y, so more than
    ``MAX_MATERIALIZED_SPAN`` (2^27) moduli are a CapacityError, raised
    before anything is allocated (``sieve._check_split``).  mu and the counts
    of multiples (:func:`_multiple_counts`) come one segment of moduli at a
    time, and the counts are multiplied by mu in place.  The terms come one
    window of ``_READ_BLOCK`` moduli at a time, so no int64 or float64 array
    of the segment's size is made: each term is one correctly rounded
    division, and one ``searchsorted`` cuts the window's moduli at
    delta.  sigma1, sigma2 and T are correctly rounded sums (``_exact_int``,
    rounded once at the end), so the windows do not change them.
    """
    a, y, delta, d_max = _check_split(x, y, a, delta)

    def reduce(windows):
        t, marks = 0, []
        for s, e, [(idx, phi_at)] in windows:
            t += _exact_int(_t_terms(a, s, idx, phi_at))
            for lo in range(0, e - s + 1, 8 * _READ_BLOCK):  # 2^17 k at a time
                unit = np.zeros(min(8 * _READ_BLOCK, e - s + 1 - lo), dtype=bool)
                unit[idx[np.searchsorted(idx, lo) : np.searchsorted(idx, lo + unit.size)] - lo] = True
                marks.append((s + lo - a, np.packbits(unit)))  # every k = n - a >= 1
        return t, marks

    parts = _reduce_pass(max(a, 0), math.floor(x), y, [a], reduce)
    t = sum(part_t for part_t, _marks in parts)
    g = np.zeros(max(d_max, 0) + 1, dtype=bool)
    for _t, marks in parts:
        while marks:  # each pack is dropped once merged
            first, packed = marks.pop()
            span = g[first : first + 8 * packed.size]
            span |= np.unpackbits(packed, count=span.size).view(bool)
    sigma1 = sigma2 = 0
    context = _PassContext(1, d_max)
    for s, e in context.segments():
        mu = _mu_segment(s, e, context.primes(e), context.strip(0, s, e, 1))
        weighted = _multiple_counts(g, s, e, mu)
        weighted *= mu
        last_head = math.floor(min(delta, e)) - s  # the offset of the last d <= delta
        for ws in range(0, weighted.size, _READ_BLOCK):
            window = weighted[ws : ws + _READ_BLOCK]
            d = np.flatnonzero(window)
            terms = window[d] / (d + (s + ws))
            cut = int(np.searchsorted(d, last_head - ws, "right"))
            sigma1 += _exact_int(terms[:cut])
            sigma2 += _exact_int(terms[cut:])
    count = int(np.count_nonzero(g))
    return MobiusSplit(_round_exact(sigma1), _round_exact(sigma2), delta, _round_exact(t), count)


def v_exact(x: float, y: float, a: int) -> float:
    """V(x, y): the Psi-normalized average of phi(n - a) over smooth n.

    The numerator is an exact integer sum; only the final division rounds.
    Psi comes from the same pass, plus psi(a, y) for a > 0.
    """
    return _v_parts(x, y, a)[0]


def v_via_abel(x: float, y: float, a: int) -> float:
    """V(x, y) through partial summation.

    Uses V * Psi = T(x, y) * (x - a) - integral_1^x T(t, y) dt.  T(., y) is
    a step function that rises by t_n = phi(n - a) / (n - a) at each smooth
    n, so the integral is the sum of t_n (floor(x) - n) over its steps plus
    the fractional top piece (x - floor(x)) T(x).  T(x) and that sum, each
    product rounded once, are exact sums rounded once (``_exact_int``), so
    the result does not depend on the windows or the parts of the pass.
    Psi is ``psi``'s quotient count, which shares no code with the pass it
    checks.
    """
    a, y = _check_pass(x, y, a)
    top = math.floor(x)
    if top <= max(a, 0):
        return 0.0

    def reduce(windows):
        t = steps = 0
        for s, _e, [(idx, phi_at)] in windows:
            terms = _t_terms(a, s, idx, phi_at)
            t += _exact_int(terms)
            steps += _exact_int(terms * (top - s - idx))
        return t, steps

    psi_value = psi(x, y)  # before the pass: a refused count sieves nothing
    t, steps = map(sum, zip(*_reduce_pass(max(a, 0), top, y, [a], reduce)))
    t_at_x = _round_exact(t)
    integral = _round_exact(steps) + (x - top) * t_at_x
    return (t_at_x * (x - a) - integral) / psi_value


@dataclass(frozen=True)
class MainTerms:
    """Leading-order predictions for T and V with their shared error scale."""

    t_main: float
    v_main: float
    err_scale: float
    zeta2_inv: float = ZETA2_INV


def main_terms(x: float, y: float, psi_value: float) -> MainTerms:
    """6/pi^2 * Psi and 3x/pi^2, plus the error scale loglog x loglog y / log y.

    The error scale needs x > e and y > e; outside that it is reported as
    nan rather than a negative or undefined number.
    """
    x, y = _to_float(x), _to_float(y)
    if not math.isfinite(x) or math.isnan(y):
        raise DomainError(f"needs a finite x and a y that is not nan, got x={x}, y={y}")
    if not 0 < psi_value < math.inf:
        raise DomainError(f"psi_value must be positive and finite, got {psi_value}")
    if x > _E and y > _E:
        err_scale = math.log(math.log(x)) * math.log(math.log(y)) / math.log(y)
    else:
        err_scale = math.nan
    return MainTerms(
        t_main=ZETA2_INV * psi_value,
        v_main=3.0 * x / (math.pi * math.pi),
        err_scale=err_scale,
    )


class AuxAverages(NamedTuple):
    tau_avg: float
    omega_avg: float


def aux_averages(x: float, y: float, a: int) -> AuxAverages:
    """Psi-normalized averages of tau(n - a) and omega(n - a) over smooth n."""
    a, y = _check_pass(x, y, a)
    psi_value = _head_psi(x, y, a)
    tau_sum = omega_sum = 0
    context = _PassContext(max(a, 0) + 1, math.floor(x), [a], rows=4)
    for s, e in context.segments():
        idx = np.flatnonzero(_smooth_mask(s, e, y, context))
        if idx.size:
            strip = context.strip(0, s - a, e - a, 4)
            tau, omega = _tau_omega(s - a, e - a, context.primes(e - a), strip)
            psi_value += idx.size
            tau_sum += int(tau[idx].sum(dtype=np.int64))
            omega_sum += int(omega[idx].sum(dtype=np.int64))
    return AuxAverages(tau_sum / psi_value, omega_sum / psi_value)


#: Largest relative error estimate |G32 - G16| that ``i_integral`` accepts
#: from its panels of 32-point Gauss-Legendre rules.
_QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value of integral_1^x t rho(log t / log y) dt.

    comparator holds the integration-by-parts leading term x^2 rho(u) / 2;
    error_estimate is the sum over the panels of |G32 - G16|.
    """

    value: float
    comparator: float
    error_estimate: float


def i_integral(x: float, y: float, table: RhoTable) -> IntegralResult:
    """Gauss-Legendre quadrature of t * rho(log t / log y) over [1, x].

    With t = y^v this is the integral of y^(2v) rho(v) log y over [0, u],
    u = log x / log y.  rho is analytic inside each unit interval, so [0, u]
    is cut into panels at every integer, and each of those into equal parts
    with 2 log y * width <= 16, so that y^(2v) stays resolved at large y.
    The value is the 32-point rule on every part; error_estimate is the sum
    of |G32 - G16|.  For u <= 1 (y >= x, y = inf included) rho is 1 and the
    value is (x^2 - 1) / 2 with error 0.  Raises DomainError before any work
    when x^2 overflows, and AccuracyError (carrying the value) if the error
    estimate exceeds ``_QUAD_REL_TOL`` relative.
    """
    x, y = _to_float(x), _to_float(y)
    if x < 1:
        raise DomainError(f"integral needs x >= 1, got {x}")
    if y < 2:
        raise DomainError(f"integral needs y >= 2, got {y}")
    if not x * x < math.inf:
        raise DomainError(f"integral needs a finite x^2, got x={x}")
    log_y = math.log(y)
    u = math.log(x) / log_y
    if u > table.u_max:
        raise DomainError(f"u={u:.6g} beyond table range {table.u_max}")
    comparator = 0.5 * x * x * rho(table, u)
    if u <= 1.0:
        return IntegralResult((x * x - 1.0) / 2.0, comparator, 0.0)

    cuts = [*range(math.ceil(u)), u]
    edges = [
        np.linspace(a, b, math.ceil(2.0 * log_y * (b - a) / 16.0) + 1)
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    mid, half = (0.5 * (hi + lo))[:, None], (0.5 * (hi - lo))[:, None]
    logs, weights = [], []
    for n in (32, 16):
        nodes, w = np.polynomial.legendre.leggauss(n)
        v = mid + half * nodes
        rho_logs = [rho_log(table, t) for t in v.ravel().tolist()]
        logs.append(2.0 * log_y * v + np.reshape(rho_logs, v.shape))  # log of y^(2v) rho(v)
        weights.append(w)
    # Factor out the largest integrand, so that no term overflows or underflows.
    top = float(logs[0].max())
    g32, g16 = (half[:, 0] * (np.exp(lg - top) @ w) for lg, w in zip(logs, weights))
    scale = math.exp(top)
    value = scale * (log_y * float(g32.sum()))
    err = scale * (log_y * float(np.abs(g32 - g16).sum()))
    if err > _QUAD_REL_TOL * max(abs(value), 1e-300):
        raise AccuracyError(
            f"quadrature error {err:.3g} above {_QUAD_REL_TOL:.1g} relative", estimate=value
        )
    return IntegralResult(value, comparator, err)
