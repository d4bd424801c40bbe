import csv
import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from smoothlab import (
    AccuracyError,
    CapacityError,
    DomainError,
    NonDifferentiableError,
    build_rho_table,
    psi_estimate,
    rho,
    rho_asymptotic,
    rho_at,
    rho_log,
    rho_prime,
    write_rho_csv,
)
from smoothlab.dickman import LOG_UNDERFLOW, MAX_KNOTS, MAX_UNITS, UNDERFLOW_FROM


def quadrature_rho3_oracle() -> float:
    """rho(3) from the integral definition and the [0, 2] closed forms only.

    rho(3) = 1 - log 2 - integral_2^3 (1 - log(v-1))/v dv, evaluated with
    composite Simpson under step halving until successive values agree to
    1e-12.  Independent of the table builder.
    """

    def g(v):
        return (1.0 - math.log(v - 1.0)) / v

    prev = None
    n = 8
    while True:
        xs = [2.0 + k / n for k in range(n + 1)]
        s = g(xs[0]) + g(xs[-1])
        s += 4 * sum(g(x) for x in xs[1:-1:2])
        s += 2 * sum(g(x) for x in xs[2:-1:2])
        integral = s / (3.0 * n)
        value = 1.0 - math.log(2.0) - integral
        if prev is not None and abs(value - prev) <= 1e-12:
            return value
        prev = value
        n *= 2


def test_rho3_against_quadrature_oracle(rho_table):
    oracle = quadrature_rho3_oracle()
    assert abs(rho(rho_table, 3.0) - oracle) <= 1e-9
    # the frozen reference value, to the digits it was stated with
    assert oracle == pytest.approx(0.0486083883, abs=5e-10)


def test_closed_forms_on_0_2(rho_table):
    for u in np.arange(0.0, 2.0005, 1e-3):
        u = float(min(u, 2.0))
        expected = 1.0 if u <= 1.0 else 1.0 - math.log(u)
        assert abs(rho(rho_table, u) - expected) <= 1e-10


def test_rho_point_examples(rho_table):
    assert rho(rho_table, 0.5) == 1.0
    assert rho(rho_table, 1.0) == 1.0
    assert rho(rho_table, 2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-14)
    assert rho(rho_table, 1.5) == pytest.approx(0.5945348918918356, abs=1e-12)
    assert rho(rho_table, 20.0) > 0.0
    assert math.isfinite(rho_log(rho_table, 20.0))


def test_delay_relation_residual(rho_table):
    # rho(u) = 1 - integral_1^u rho(v-1)/v dv, checked with an independent
    # composite quadrature over the stored knots.
    m = rho_table.steps_per_unit
    for u_k in (2.0, 2.5, 3.0, 5.0, 7.5, 10.0, 20.0, 30.0):
        j = round((u_k - 1.0) * m)
        v = rho_table.u[m : m + j + 1]
        g = rho_table.rho_values[: j + 1] / v
        integral = simpson(g, x=v)
        assert abs(rho(rho_table, u_k) - (1.0 - integral)) <= 1e-9, u_k


def test_strictly_decreasing_and_positive(rho_table):
    m = rho_table.steps_per_unit
    tail = rho_table.log_rho[m:]
    assert np.all(np.isfinite(tail))
    assert np.all(np.diff(tail) < 0)


def test_interpolant_knot_continuity(rho_table):
    # Adjacent pieces must agree where they meet: the closed form against
    # the first series at u = 2, then each unit series against the next.
    def piece(K, s):
        val = 0.0
        for c in rho_table.coeffs[K][::-1]:
            val = val * s + c
        return math.exp(float(rho_table.scale_logs[K]) + math.log(val))

    assert abs(piece(2, -0.5) - (1.0 - math.log(2.0))) <= 1e-12
    for K in range(3, rho_table.units):
        assert abs(piece(K - 1, 0.5) - piece(K, -0.5)) <= 1e-12, K


def test_evaluation_reproduces_stored_knots(rho_table):
    m = rho_table.steps_per_unit
    for k in range(0, len(rho_table.u), 5 * m // 2):
        u_k = float(rho_table.u[k])
        assert abs(rho(rho_table, u_k) - float(rho_table.rho_values[k])) <= 1e-12


def test_step_halving_agreement(rho_table):
    fine = build_rho_table(u_max=30.0, h=1.0 / 512.0)
    m = rho_table.steps_per_unit
    ks = np.arange(0, 30 * m + 1)
    coarse_vals = rho_table.rho_values[ks]
    fine_vals = fine.rho_values[2 * ks]
    assert np.max(np.abs(coarse_vals - fine_vals)) <= 1e-9


def test_build_guards():
    with pytest.raises(DomainError):
        build_rho_table(u_max=0.5)
    with pytest.raises(DomainError):
        build_rho_table(u_max=4, h=0.0)
    with pytest.raises(AccuracyError):
        build_rho_table(u_max=4, h=1.0 / 32.0)


def test_build_rejects_non_finite_and_oversized_inputs():
    bad = ((math.nan, 1 / 256), (math.inf, 1 / 256), (4.0, math.nan), (4.0, math.inf), (4.0, 1e-320))
    for u_max, h in bad:
        with pytest.raises(DomainError):
            build_rho_table(u_max=u_max, h=h)
    start = time.perf_counter()
    for u_max in (MAX_UNITS + 0.5, 1e6, 1e300):
        with pytest.raises(CapacityError):
            build_rho_table(u_max=u_max)
    assert time.perf_counter() - start < 0.1


def test_series_only_table_leaves_the_grid_unbuilt():
    tracemalloc.start()
    try:
        table = build_rho_table(1000, 1.0 / 512.0)
        rho(table, 999.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nothing but the dataclass fields is stored until the grid is read
    assert vars(table).keys() == {f.name for f in dataclasses.fields(table)}
    assert peak < 4 * 2**20


def test_oversized_grid_raises_on_access_only():
    table = build_rho_table(1000, 1.0 / 8192.0)
    assert table.units * table.steps_per_unit + 1 > MAX_KNOTS
    assert rho_log(table, 999.5).hex() == "-0x1.f22127c7d201ep+12"
    for name in ("u", "log_rho", "rho_values"):
        with pytest.raises(CapacityError):
            getattr(table, name)


def numpy_advance_unit(b, K):
    """The numpy-scalar series step the plain-float builder replaced, as a reference."""
    b = np.asarray(b, dtype=np.float64)
    a = K + 0.5
    c = np.zeros_like(b)
    c[1] = -b[0] / a
    for mth in range(2, len(b)):
        c[mth] = ((1 - mth) * c[mth - 1] - b[mth - 1]) / (a * mth)
    i = np.arange(len(b))
    w = 1.0 / (2.0 ** (i + 1) * (i + 1))
    signed = w * (-1.0) ** i
    c[0] = math.fsum((b * w).tolist() + (c[1:] * signed[1:]).tolist()) / K
    return c


def test_series_equal_the_numpy_reference_step_bit_for_bit():
    table = build_rho_table(1000)
    for K in range(2, table.units):
        c = numpy_advance_unit(table.coeffs[K - 1], K)
        assert table.coeffs[K] == tuple((c / c[0]).tolist()), K
        assert table.scale_logs[K] == table.scale_logs[K - 1] + math.log(c[0]), K


@pytest.mark.parametrize(
    "u, expected",
    [
        (2.5, "-0x1.04d58175ae8cep+1"),
        (3.0, "-0x1.83111809bd302p+1"),
        (10.0, "-0x1.84f3d23ca3940p+4"),
        (57.9, "-0x1.0ad8f67be1a4cp+8"),
        (130.0, "-0x1.6b3ffe2c4567bp+9"),
        (512.25, "-0x1.cd4cc2f259885p+11"),
        (999.5, "-0x1.f22127c7d201ep+12"),
        (1000.0, "-0x1.f26a1a2ca9d51p+12"),
    ],
)
def test_rho_log_pinned_bits(u, expected):
    # Values recorded from the numpy-stepped series builder this one replaced.
    assert rho_log(build_rho_table(1000, 1.0 / 512.0), u).hex() == expected


@pytest.mark.parametrize("u_max, h", [(12.0, 1.0 / 256.0), (200.0, 1.0 / 64.0)])
def test_lazy_grid_matches_evaluation_at_every_knot(u_max, h):
    table = build_rho_table(u_max, h)
    log_eval = np.array([rho_log(table, float(u)) for u in table.u])
    rho_eval = np.array([rho(table, float(u)) for u in table.u])
    assert np.all(np.abs(table.log_rho - log_eval) <= 1e-15 * np.maximum(1.0, np.abs(log_eval)))
    assert np.array_equal(table.rho_values == 0.0, rho_eval == 0.0)
    live = rho_eval > 0.0
    assert np.all(np.abs(table.rho_values[live] - rho_eval[live]) <= 1e-12 * rho_eval[live])


def test_out_of_range_errors(rho_table):
    with pytest.raises(DomainError):
        rho(rho_table, -0.1)
    with pytest.raises(DomainError):
        rho(rho_table, rho_table.u_max + 1.0)
    with pytest.raises(DomainError):
        rho(rho_table, math.nan)


def test_rho_prime_examples(rho_table):
    assert rho_prime(rho_table, 0.5) == 0.0
    assert rho_prime(rho_table, 2.0) == -0.5
    assert rho_prime(rho_table, 3.0) == pytest.approx(-(1.0 - math.log(2.0)) / 3.0, abs=1e-12)
    with pytest.raises(NonDifferentiableError):
        rho_prime(rho_table, 1.0)
    with pytest.raises(DomainError):
        rho_prime(rho_table, 0.0)


def test_derivative_bound_scan(rho_table):
    # |rho'(u)| <= 3 rho(u) log(u+1) on [1.01, 30]; the 3 is a calibrated
    # desk-scale constant.
    for u in np.arange(1.01, 30.0, 0.01):
        u = float(u)
        bound = 3.0 * rho(rho_table, u) * math.log(u + 1.0)
        assert abs(rho_prime(rho_table, u)) <= bound, u


def test_rho_asymptotic(rho_table):
    assert rho_asymptotic(math.e) == pytest.approx(math.exp(-math.e), rel=1e-15)
    assert rho_asymptotic(1.0) == 1.0
    with pytest.raises(DomainError):
        rho_asymptotic(0.0)
    for u in range(5, 31):
        ratio = rho_log(rho_table, float(u)) / (-u * math.log(u))
        assert 0.5 <= ratio <= 1.5, u


def test_psi_estimate(rho_table):
    est = psi_estimate(1e6, 1e3, "rho", rho_table)
    assert est.value == pytest.approx(1e6 * (1.0 - math.log(2.0)), rel=1e-12)
    assert est.error_scale == pytest.approx(math.log(3.0) / math.log(1e3), rel=1e-12)
    cep = psi_estimate(1e6, 1e3, "cep")
    assert cep.value == pytest.approx(250000.0, rel=1e-12)
    assert cep.error_scale == 0.0
    same = psi_estimate(50.0, 50.0, "rho", rho_table)
    assert same.value == pytest.approx(50.0, rel=1e-12)
    with pytest.raises(DomainError):
        psi_estimate(10, 3, "nope")
    with pytest.raises(DomainError):
        psi_estimate(3, 10, "rho")


@pytest.fixture(scope="module")
def full_table():
    return build_rho_table(MAX_UNITS)


def test_underflow_cutoff_is_the_first_integer_past_the_underflow(full_table):
    first = next(K for K in range(2, MAX_UNITS + 1) if rho_log(full_table, K) < LOG_UNDERFLOW)
    assert UNDERFLOW_FROM == first
    assert rho(full_table, UNDERFLOW_FROM - 1) > 0.0


def test_series_underflows_everywhere_past_the_cutoff(full_table):
    # The series itself, which rho no longer evaluates there, gives 0.0 too.
    grid = np.arange(UNDERFLOW_FROM, MAX_UNITS, 0.37).tolist()
    assert all(rho_log(full_table, u) < LOG_UNDERFLOW for u in grid)
    assert all(rho(full_table, u) == 0.0 for u in grid)


def test_rho_past_the_cutoff_still_checks_the_table_range(advance_calls):
    table = build_rho_table(200.0)
    built = len(advance_calls)
    assert rho(table, 200.0) == 0.0 and rho_prime(table, 200.0) == 0.0
    for u in (200.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            rho(table, u)
    assert len(advance_calls) == built


def test_psi_estimate_builds_no_table_past_the_cutoff(advance_calls):
    est = psi_estimate(1e300, 2)
    u = math.log(1e300) / math.log(2)
    assert u > UNDERFLOW_FROM and advance_calls == []
    assert (est.value, est.method) == (0.0, "rho")
    assert est.error_scale == math.log(u + 1.0) / math.log(2)
    below = psi_estimate(2.0**126, 2)
    assert below.value > 0.0 and len(advance_calls) == 124


def _outcome(call):
    """float.hex of what call returns, or the type and message of what it raises."""
    try:
        return call().hex()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("h", [1 / 64, 1 / 256, 1 / 512, 0.5, math.nan])
def test_rho_at_is_rho_of_a_fresh_table(advance_calls, h):
    # The rule the CLI's rho --u and a table-less psi_estimate both carried:
    # refuse what the table would refuse, then 0.0 from UNDERFLOW_FROM on.
    for u in (0, 1, 2, 3.7, 126.99, 127, 500, math.nan, math.inf, 10001):
        want = _outcome(lambda: rho(build_rho_table(max(2, u), h), u))
        advance_calls.clear()
        got = _outcome(lambda: rho_at(u, h))
        if u >= UNDERFLOW_FROM and not isinstance(want, tuple):
            assert (got, advance_calls) == ((0.0).hex(), [])
        assert got == want, (u, h)
    advance_calls.clear()
    assert psi_estimate(1e300, 2).value == 0.0 and advance_calls == []


def test_csv_dump(tmp_path, rho_table):
    path = tmp_path / "rho.csv"
    write_rho_csv(rho_table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "rho", "log_rho"]
    assert len(rows) - 1 == len(rho_table.u)
    u1, r1, l1 = (float(v) for v in rows[1])
    assert (u1, r1, l1) == (0.0, 1.0, 0.0)
    # spot-check a deep row round-trips near the stored values
    k = 20 * rho_table.steps_per_unit
    row = rows[k + 1]
    assert float(row[0]) == pytest.approx(20.0, abs=1e-12)
    assert float(row[2]) == pytest.approx(rho_table.log_rho[k], rel=1e-11)
