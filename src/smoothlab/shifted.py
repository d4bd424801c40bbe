"""Shifted-totient sums over smooth numbers and their identity cross-checks.

For a nonzero integer shift a, the two quantities of interest are

    T(x, y) = sum of phi(n - a) / (n - a)   over smooth n in (max(a,0), floor(x)]
    V(x, y) = (1 / Psi(x, y)) * sum of phi(n - a)   over the same n,

together with three independent evaluation routes used to cross-check them:
a truncated Moebius expansion of T (phi(k)/k = sum over d | k of mu(d)/d),
a partial-summation identity for V built from cumulative T at integer cut
points, and the quadrature integral I(x, y) = integral of t * rho(log t /
log y) with its leading-term comparator x^2 rho(u) / 2.

T and V come from one pass over the segments of (max(a,0), floor(x)]: a
smoothness mask per segment, then phi(n - a) at the smooth n only.  Each
segment picks its totient route: ``_phi_at`` on the values n - a when the
smooth n are sparse (``SPARSE_PHI_FACTOR``), else the ``_phi_segment``
window.  Both give the same integers, so the route never changes a result.
Float terms are summed exactly and rounded once (``_exact_sum``), so T and
the Moebius split do not depend on the segment size or the term order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .census import SmoothRange, _check_x, _check_y, psi
from .dickman import RhoTable, rho
from .errors import AccuracyError, DomainError
from .sieve import (
    _check_int, _mu_segment, _phi_at, _phi_segment, _smooth_mask, primes_upto,
    segment_bounds, tau_omega_range,
)

#: 6 / pi^2, the reciprocal of zeta(2), from the double-precision pi literal.
ZETA2_INV = 6.0 / (math.pi * math.pi)

#: Ceiling for the exact-rational summation mode.
RATIONAL_MODE_LIMIT = 10**4

#: A segment takes phi(n - a) from ``_phi_at`` at its smooth n when their
#: count times pi(sqrt(e - a)) is below this multiple of the segment size,
#: and from the ``_phi_segment`` window otherwise.  On 2^18-entry windows
#: the two cost the same at about 8 times the size near e - a = 4e6 (2.6 %
#: density) and 40 to 70 times near 2e9 (1 % or more); the factor sits at
#: the low end.
SPARSE_PHI_FACTOR = 12

#: Terms per bincount in ``_exact_sum``.  Mantissa halves are below 2^27 in
#: size, so a slice's per-exponent sums stay exact integers in float64.
_EXACT_SLICE = 1 << 20

_E = math.e


def _check_shift(a) -> int:
    a = _check_int(a, "shift a")
    if a == 0:
        raise DomainError("shift a must be nonzero")
    return a


def _phi_gather(lo: int, hi: int, idx: np.ndarray) -> np.ndarray:
    """phi(lo + idx), from ``_phi_at`` when the idx are sparse, else from the window."""
    if idx.size * primes_upto(math.isqrt(hi)).size < SPARSE_PHI_FACTOR * (hi - lo + 1):
        return _phi_at(idx + lo)
    return _phi_segment(lo, hi)[idx]


def _tau_omega_gather(lo: int, hi: int, idx: np.ndarray) -> np.ndarray:
    """tau and omega of lo + idx, as the two rows of one array."""
    return np.asarray(tau_omega_range(lo, hi))[:, idx]


def _shifted_pass(x: float, y: float, a: int, gather=_phi_gather):
    """Check the arguments of a shifted sum, then return (a, head, segments).

    head = Psi(min(x, a), y) counts the smooth n <= x the pass skips (0 for
    a < 0), so head plus the smooth n of the pass is Psi(x, y).  segments
    yields (s, e, idx, at) for each segment [s, e] of (max(a,0), floor(x)]:
    the y-smooth n there are s + idx, and ``at`` holds gather(s - a, e - a,
    idx) -- phi(n - a) by default -- at them.  The shifted values are
    computed only when their segment has a smooth n.
    """
    a, y = _check_shift(a), _check_y(y)
    _check_x(x)
    if x < 1:
        raise DomainError(f"psi needs x >= 1, got {x}")
    head = psi(min(x, a), y) if a > 0 else 0

    def segments():
        for s, e in segment_bounds(max(a, 0) + 1, math.floor(x)):
            idx = np.flatnonzero(_smooth_mask(s, e, y))
            at = gather(s - a, e - a, idx) if idx.size else idx
            yield s, e, idx, at

    return a, head, segments()


def _t_terms(a: int, s: int, idx: np.ndarray, phi_at: np.ndarray) -> np.ndarray:
    """phi(n - a) / (n - a) at the smooth n = s + idx."""
    return phi_at / (idx + (s - a)).astype(np.float64)


def _v_parts(x: float, y: float, a: int) -> tuple[int, int]:
    """(sum of phi(n - a) over smooth n in (max(a,0), floor(x)], Psi(x, y)).

    V needs no T, so this pass leaves out T's terms and their sum.
    """
    _a, psi_value, segments = _shifted_pass(x, y, a)
    numerator = 0
    for _s, _e, idx, phi_at in segments:
        psi_value += idx.size
        numerator += int(phi_at.sum())
    return numerator, psi_value


def _shifted_totals(x: float, y: float, a: int) -> tuple[int, float, float]:
    """(Psi(x, y), T(x, y), V(x, y)) from a single pass over the segments."""
    a, psi_value, segments = _shifted_pass(x, y, a)
    numerator = 0

    def terms():
        nonlocal psi_value, numerator
        for s, _e, idx, phi_at in segments:
            psi_value += idx.size
            numerator += int(phi_at.sum())
            yield _t_terms(a, s, idx, phi_at)

    t = _exact_sum(terms())
    return psi_value, t, numerator / psi_value


def _exact_sum(chunks) -> float:
    """The correctly rounded sum of the finite float64 values of every array in chunks.

    The same float as ``math.fsum`` over them, without boxing a term.  Each
    term is mant * 2^(exp - 53) with an integer |mant| < 2^53 (np.frexp).
    The mantissa splits into a high and a low half, each summed per
    exponent by one bincount, exact while the sums stay below 2^53.  The
    sums go into one Python integer in units of 2^-1126 (a mantissa unit at
    the smallest exponent frexp gives), and one int/int true division
    rounds it.
    """
    total = 0
    for chunk in chunks:
        for start in range(0, chunk.size, _EXACT_SLICE):
            mant, exp = np.frexp(chunk[start : start + _EXACT_SLICE])
            mant *= 2.0**53
            high = np.floor(mant * 2.0**-27)
            mant -= high * 2.0**27  # the low half, in [0, 2^27)
            base = int(exp.min())
            bins = exp - base
            for part, shift in ((high, base + 1073 + 27), (mant, base + 1073)):
                sums = np.bincount(bins, weights=part)
                for k in np.flatnonzero(sums).tolist():
                    total += int(sums[k]) << (k + shift)
    return total / (1 << 1126)


def t_exact(x: float, y: float, a: int) -> float:
    """T(x, y): sum of phi(n - a)/(n - a) over smooth n in (max(a,0), floor(x)].

    Terms stream segment by segment into an exact sum that is rounded once
    (``_exact_sum``, the float math.fsum gives), so the result is within
    1e-12 relative of the exact rational value and memory does not grow
    with x.
    """
    return _shifted_totals(x, y, a)[1]


def _tree_sum(fractions: list[Fraction]) -> Fraction:
    # Pairwise reduction keeps intermediate denominators small.
    while len(fractions) > 1:
        fractions = [
            fractions[i] + fractions[i + 1] if i + 1 < len(fractions) else fractions[i]
            for i in range(0, len(fractions), 2)
        ]
    return fractions[0] if fractions else Fraction(0)


def t_exact_fraction(x: float, y: float, a: int) -> Fraction:
    """Exact rational T(x, y), for pinning the float path at small x."""
    if not x < RATIONAL_MODE_LIMIT + 1:  # also rejects nan, before any sieving
        raise DomainError(f"rational mode limited to x <= {RATIONAL_MODE_LIMIT}")
    a, _head, segments = _shifted_pass(x, y, a)
    terms = [
        Fraction(int(p), int(i) + s - a)
        for s, _e, idx, phi_at in segments
        for i, p in zip(idx, phi_at)
    ]
    return _tree_sum(terms)


@dataclass(frozen=True)
class MobiusSplit:
    """Truncated Moebius expansion of T at cutoff delta.

    sigma1 collects moduli d <= delta, sigma2 the tail above; their sum
    equals T(x, y) whenever the tail range covers every divisor of n - a.
    """

    sigma1: float
    sigma2: float
    delta_used: float

    @property
    def total(self) -> float:
        return self.sigma1 + self.sigma2


def _multiple_counts(k: np.ndarray, n: int) -> np.ndarray:
    """g[d] = #{entries of k divisible by d} for 0 <= d <= n, given 1 <= k <= n.

    A bincount of k, then g[i] += g[i p] prime by prime.  For p <= sqrt(n)
    the i run in descending blocks (n / p^(j+1), n / p^j] that read only
    entries already updated for p.  Primes above sqrt(n) have pairwise
    products above n, so each i < sqrt(n) takes all of them in one gather.
    """
    g = np.bincount(k, minlength=n + 1)
    root = math.isqrt(n)
    primes = primes_upto(n)
    split = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:split].tolist():
        hi = n // p
        while hi:
            lo = hi // p
            g[lo + 1 : hi + 1] += g[(lo + 1) * p : hi * p + 1 : p]
            hi = lo
    big = primes[split:]
    for i in range(1, n // (root + 1) + 1):
        g[i] += g[i * big[: np.searchsorted(big, n // i, side="right")]].sum()
    return g


def t_via_mobius(x: float, y: float, a: int, delta: float) -> MobiusSplit:
    """Evaluate T through progression counts: sum over d of mu(d)/d * #{n = a mod d}.

    Moduli run to floor(x) for positive shifts (counts vanish above x - a
    anyway) and to floor(x) - a for negative shifts, where divisors of n - a
    genuinely exceed x.  All counts come from one :func:`_multiple_counts`
    pass; each term is one correctly rounded division, and each of sigma1
    and sigma2 is their correctly rounded sum (``_exact_sum``).
    """
    a, y = _check_shift(a), _check_y(y)
    _check_x(x)
    delta = float(delta)
    if not delta >= 1:
        raise DomainError(f"cutoff must be >= 1, got {delta}")
    top = math.floor(x)
    lo = max(a, 0)
    if top <= lo:
        return MobiusSplit(0.0, 0.0, delta)
    d_max = top - min(a, 0)
    k = SmoothRange(lo + 1, top, y).values - a
    mu = np.concatenate([_mu_segment(s, e) for s, e in segment_bounds(1, d_max)])
    weighted = mu * _multiple_counts(k, d_max)[1:]
    d = np.flatnonzero(weighted) + 1
    terms = weighted[d - 1] / d
    head = d <= delta
    return MobiusSplit(_exact_sum([terms[head]]), _exact_sum([terms[~head]]), delta)


def v_exact(x: float, y: float, a: int) -> float:
    """V(x, y): the Psi-normalized average of phi(n - a) over smooth n.

    The numerator is an exact integer sum; only the final division rounds.
    Psi comes from the same pass, plus psi(a, y) for a > 0.
    """
    numerator, psi_value = _v_parts(x, y, a)
    return numerator / psi_value


def v_via_abel(x: float, y: float, a: int) -> float:
    """V(x, y) through partial summation.

    Uses V * Psi = T(x, y) * (x - a) - integral_1^x T(t, y) dt, where T(., y)
    is a step function in its first argument; the integral is the exact sum
    of T(k) over integer k < floor(x) plus the fractional top piece.
    """
    a, psi_value, segments = _shifted_pass(x, y, a)
    top = math.floor(x)
    if top <= max(a, 0):
        return 0.0
    running_t = 0.0
    integral_parts = []
    for s, e, idx, phi_at in segments:
        psi_value += idx.size
        terms = np.zeros(e - s + 1)
        terms[idx] = _t_terms(a, s, idx, phi_at)
        cumulative = running_t + np.cumsum(terms)
        upper = min(e, top - 1)
        if upper >= s:
            integral_parts.append(float(np.sum(cumulative[: upper - s + 1])))
        running_t = float(cumulative[-1])
    t_at_x = running_t
    integral = math.fsum(integral_parts) + (x - top) * t_at_x
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
    x, y = float(x), float(y)
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
    _a, psi_value, segments = _shifted_pass(x, y, a, _tau_omega_gather)
    tau_sum = omega_sum = 0
    for _s, _e, idx, at in segments:
        psi_value += idx.size
        if idx.size:
            tau_sum += int(at[0].sum())
            omega_sum += int(at[1].sum())
    return AuxAverages(tau_sum / psi_value, omega_sum / psi_value)


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value of integral_1^x t rho(log t / log y) dt.

    comparator holds the integration-by-parts leading term x^2 rho(u) / 2;
    error_estimate is the accumulated quadrature error bound.
    """

    value: float
    comparator: float
    error_estimate: float


def i_integral(x: float, y: float, table: RhoTable, rel_tol: float = 1e-8) -> IntegralResult:
    """Adaptive quadrature of t * rho(log t / log y) over [1, x].

    The integrand is split at powers of y, where rho's argument crosses the
    integer kinks of the delay relation.  Raises AccuracyError (carrying the
    achieved estimate) if the accumulated error bound exceeds rel_tol.
    """
    x, y = float(x), float(y)
    if x < 1:
        raise DomainError(f"integral needs x >= 1, got {x}")
    if y < 2:
        raise DomainError(f"integral needs y >= 2, got {y}")
    u = math.log(x) / math.log(y)
    if u > table.u_max:
        raise DomainError(f"u={u:.6g} beyond table range {table.u_max}")
    comparator = 0.5 * x * x * rho(table, u)
    if x == 1.0:
        return IntegralResult(0.0, comparator, 0.0)

    def integrand(t: float) -> float:
        return t * rho(table, math.log(t) / math.log(y))

    cuts = [1.0]
    k = 1
    while y**k < x:
        cuts.append(float(y**k))
        k += 1
    cuts.append(x)
    value = 0.0
    err = 0.0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        piece, piece_err = quad(integrand, t0, t1, epsrel=1e-10, limit=200)
        value += piece
        err += piece_err
    if err > rel_tol * max(abs(value), 1e-300):
        raise AccuracyError(
            f"quadrature error {err:.3g} above {rel_tol:.1g} relative", estimate=value
        )
    return IntegralResult(value, comparator, err)
