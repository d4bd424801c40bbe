"""Numerical evaluation of the Dickman-de Bruijn function rho(u).

rho solves the delay relation rho(u) = 1 - integral_1^u rho(v-1)/v dv with
rho = 1 on [0, 1]; the closed forms rho = 1 on [0, 1] and rho = 1 - log u
on [1, 2] seed everything.

The solution decays roughly like u^(-u), so any scheme that steps
rho(K+1) = rho(K) - (increment) multiplies inherited relative error by
rho(K)/rho(K+1) per unit interval and loses all precision by u of about 11.
The builder therefore represents rho on each unit interval [K, K+1] as a
power series about the midpoint: the differentiated delay relation
rho'(u) = -rho(u-1)/u turns the previous unit's coefficients into the
current ones, and the constant term is anchored through the equivalent
integral identity u rho(u) = integral of rho over [u-1, u], whose terms are
cancellation-free.  Per-unit log scaling keeps every stored number O(1), so
the table is accurate to near machine precision in relative terms at any
depth, with values below exp(-700) reported as 0 in the linear domain.

rho never increases (rho'(u) = -rho(u-1)/u <= 0), and log rho falls below
that cutoff before u = ``UNDERFLOW_FROM`` (127).  So ``rho`` answers 0.0
from there on without evaluating a series, once its range checks pass, and
``rho_at`` (``rho --u``, and ``psi_estimate`` without a table) builds none.

A build is one eager pass over the series, on plain floats; the knot grid,
which aligns integers (the kink points of rho) with knots, is computed from
the series only when first read.  Nothing is cached between builds.
"""

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .errors import CapacityError, DomainError, NonDifferentiableError
from .formats import format_sig12
from .sieve import MAX_UNITS, _check_log_ratio, _check_point, _check_table, _to_float

#: Below this log-value, rho underflows to an exact 0.0.
LOG_UNDERFLOW = -700.0

#: The smallest integer K with log rho(K) < LOG_UNDERFLOW (log rho(127) is
#: about -706.18, log rho(126) about -699.42).  rho never increases, so
#: rho(u) is 0.0 for every u >= K.  Derived from the table and pinned by
#: the tests.
UNDERFLOW_FROM = 127

#: Series degree per unit interval; terms decay at least like 3^-i.
SERIES_DEGREE = 48

#: Largest knot grid a table computes.  ``MAX_UNITS`` and ``MAX_STEP``, the
#: bounds on u_max and h, live with the table's argument check
#: (``sieve._check_table``).
MAX_KNOTS = 1 << 22

#: W[i] is the integral of s^i over [0, 1/2]; over [-1/2, 0] it is (-1)^i W[i].
_W = tuple(1.0 / (2.0 ** (i + 1) * (i + 1)) for i in range(SERIES_DEGREE + 1))
_W_SIGNED_TAIL = tuple(-w if i % 2 else w for i, w in enumerate(_W))[1:]


@dataclass(frozen=True)
class RhoTable:
    """rho on [0, units] as per-unit midpoint series, with a lazy knot grid.

    Attributes:
        u_max: Largest u the caller asked to cover.
        step: Knot spacing 1/m (snapped so integers are knots).
        steps_per_unit: m, knots per unit interval.
        units: Integer upper end of the covered range.
        coeffs: coeffs[K] holds the series for rho(K + 1/2 + s) / scale_K,
            normalized so its constant term is 1; entries for K = 1 ..
            units - 1.
        scale_logs: log of scale_K per unit (nan for the unused index 0).
        u: Knot locations k/m; the grid is computed from the series on
            first access, raising CapacityError past MAX_KNOTS knots.
        log_rho: log rho at the knots.
        rho_values: rho at the knots (0.0 below the underflow cutoff).
    """

    u_max: float
    step: float
    steps_per_unit: int
    units: int
    coeffs: tuple
    scale_logs: tuple

    @cached_property
    def _grid(self) -> tuple:
        m, h = self.steps_per_unit, self.step
        n_knots = self.units * m + 1
        if n_knots > MAX_KNOTS:
            raise CapacityError(f"knot grid of {n_knots} points exceeds {MAX_KNOTS}")
        log_rho = np.zeros(n_knots)
        # Exact closed form on (1, 2].
        for k in range(m + 1, min(2 * m, n_knots - 1) + 1):
            log_rho[k] = math.log1p(-math.log(k * h))
        for K in range(2, self.units):
            s = (np.arange(K * m + 1, K * m + m + 1) * h) - (K + 0.5)
            vals = np.polynomial.polynomial.polyval(s, self.coeffs[K])
            log_rho[K * m + 1 : K * m + m + 1] = self.scale_logs[K] + np.log(vals)
        u = np.arange(n_knots) * h
        with np.errstate(under="ignore"):
            rho_values = np.where(log_rho < LOG_UNDERFLOW, 0.0, np.exp(log_rho))
        for arr in (u, log_rho, rho_values):
            arr.setflags(write=False)
        return u, log_rho, rho_values

    u = property(lambda self: self._grid[0])
    log_rho = property(lambda self: self._grid[1])
    rho_values = property(lambda self: self._grid[2])


def build_rho_table(u_max: float = 64.0, h: float = 1.0 / 256.0) -> RhoTable:
    """Tabulate rho on [0, ceil(u_max)] with knot spacing at most h.

    h is snapped to 1/m with m = ceil(1/h) so that every integer is a knot;
    h > 1/64 is refused as too coarse a grid to be worth storing.  Raises
    :class:`DomainError` for a non-finite or out-of-range u_max or h and
    :class:`CapacityError` for u_max above MAX_UNITS, before any work.
    """
    u_max, h, units = _check_table(u_max, h)
    m = math.ceil(1.0 / h)
    coeffs: list = [None] * max(units, 2)
    scale_logs = [math.nan] * max(units, 2)
    if units >= 2:
        # Seed unit [1, 2]: rho(1.5 + s) = 1 - log 1.5 - log(1 + s/1.5).
        i = np.arange(1, SERIES_DEGREE + 1, dtype=np.float64)
        seed = np.concatenate(([1.0 - math.log(1.5)], (-1.0 / 1.5) ** i / i))
        scale_logs[1] = math.log(seed[0])
        coeffs[1] = tuple((seed / seed[0]).tolist())
        for K in range(2, units):
            c = _advance_unit(coeffs[K - 1], K)
            scale_logs[K] = scale_logs[K - 1] + math.log(c[0])
            coeffs[K] = tuple([v / c[0] for v in c])
    return RhoTable(u_max=u_max, step=1.0 / m, steps_per_unit=m, units=units,
                    coeffs=tuple(coeffs), scale_logs=tuple(scale_logs))


def _advance_unit(b: tuple, K: int) -> list:
    """Series for unit [K, K+1] from the previous unit's series b.

    Both series are about their unit midpoints; b is normalized (b[0] = 1)
    and the result is in the same scale as b.
    """
    a = K + 0.5
    c = [0.0] * len(b)
    # rho'(a + s) = -rho_prev(s) / (a + s) fixes every coefficient but the
    # constant one; the m = 1 case drops the c term entirely.
    c[1] = -b[0] / a
    for mth in range(2, len(b)):
        c[mth] = ((1 - mth) * c[mth - 1] - b[mth - 1]) / (a * mth)
    # Constant term from the integral identity u rho(u) = integral of rho
    # over [u-1, u] at the midpoint u = K + 1/2, where c[0] W[0] = c[0] / 2
    # cancels from both sides; its terms never cancel catastrophically,
    # unlike stepping rho(K) - increment.
    c[0] = math.fsum([*map(mul, b, _W), *map(mul, c[1:], _W_SIGNED_TAIL)]) / K
    return c


def rho_log(table: RhoTable, u: float) -> float:
    """log rho(u), stable for arbitrarily small rho."""
    u = _check_point(u, table.u_max)
    if u <= 1.0:
        return 0.0
    if u <= 2.0:
        return math.log1p(-math.log(u))
    K = min(int(math.floor(u)), table.units - 1)
    s = u - (K + 0.5)
    c = table.coeffs[K]
    val = 0.0
    for coef in c[::-1]:
        val = val * s + coef
    return float(table.scale_logs[K]) + math.log(val)


def rho(table: RhoTable, u: float) -> float:
    """rho(u); exact closed forms on [0, 2], series below ``UNDERFLOW_FROM``.

    u must lie in the table's range.  From ``UNDERFLOW_FROM`` on, rho is
    0.0 and no series is evaluated.
    """
    if _check_point(u, table.u_max) >= UNDERFLOW_FROM:
        return 0.0
    lv = rho_log(table, u)
    if lv < LOG_UNDERFLOW:
        return 0.0
    return math.exp(lv)


def rho_at(u: float, h: float = 1.0 / 256.0) -> float:
    """rho(u) from a fresh table on [0, max(2, u)] with knot step h.

    The table's refusals come first, so a u or h that no table could take
    is refused even where rho underflows; from ``UNDERFLOW_FROM`` on the
    answer is 0.0 and no series is built.
    """
    u_max, h, _units = _check_table(max(2.0, u), h)
    return 0.0 if u >= UNDERFLOW_FROM else rho(build_rho_table(u_max, h), u)


def rho_prime(table: RhoTable, u: float) -> float:
    """rho'(u) from the delay relation: -rho(u-1)/u for u > 1, 0 on (0, 1)."""
    u = _to_float(u)
    if u <= 0:
        raise DomainError(f"derivative needs u > 0, got {u}")
    if u == 1.0:
        raise NonDifferentiableError("rho is not differentiable at u = 1")
    if u < 1.0:
        return 0.0
    _check_point(u, table.u_max)
    return -rho(table, u - 1.0) / u


def rho_asymptotic(u: float) -> float:
    """Leading-order comparator exp(-u log u).

    Drops the lower-order corrections entirely, so this tracks the order of
    magnitude of rho(u), not its value.
    """
    u = _to_float(u)
    if u <= 0:
        raise DomainError(f"comparator needs u > 0, got {u}")
    return math.exp(-u * math.log(u))


@dataclass(frozen=True)
class PsiEstimate:
    """A smooth-count estimate together with its nominal error scale."""

    value: float
    method: str
    error_scale: float


def psi_estimate(
    x: float, y: float, method: str = "rho", table: RhoTable | None = None
) -> PsiEstimate:
    """Estimate the number of y-smooth integers up to x.

    method "rho" returns x * rho(u) with error scale log(u+1)/log y; without
    a table rho(u) comes from ``rho_at``, which builds one up to u, or none
    from ``UNDERFLOW_FROM`` on.  Method "cep" returns the cruder x * u^(-u)
    order-of-magnitude comparator (its o(u) exponent correction is dropped;
    error scale reported as 0).
    """
    x, y = _check_log_ratio(x, y)
    u = math.log(x) / math.log(y)
    if method == "rho":
        value = x * (rho_at(u) if table is None else rho(table, u))
        scale = math.log(u + 1.0) / math.log(y)
        return PsiEstimate(value=value, method="rho", error_scale=scale)
    if method == "cep":
        return PsiEstimate(value=x * rho_asymptotic(u), method="cep", error_scale=0.0)
    raise DomainError(f"unknown estimate method {method!r}")


def write_rho_csv(table: RhoTable, path) -> None:
    """Dump the knot grid as CSV with columns u, rho, log_rho."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "rho", "log_rho"])
        for uk, rk, lk in zip(table.u, table.rho_values, table.log_rho):
            w.writerow([format_sig12(float(uk)), format_sig12(float(rk)), format_sig12(float(lk))])
