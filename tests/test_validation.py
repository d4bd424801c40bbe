"""The argument checks of every public entry point, in one table.

Each check lives in ``smoothlab.sieve`` and runs before anything is
allocated: a refused argument costs O(1) memory, whatever its size.
"""

import ast
import math
import re
import tracemalloc
from pathlib import Path

import pytest

import smoothlab
from smoothlab import (
    CapacityError,
    DomainError,
    ScanConfig,
    SmoothlabError,
    SmoothRange,
    aux_averages,
    build_rho_table,
    convergence_scan,
    ft_ratio_scan,
    granville_discrepancy,
    i_integral,
    is_smooth,
    main_terms,
    psi,
    psi_coprime,
    psi_enum_oracle,
    psi_estimate,
    psi_progression,
    range_check,
    rho,
    rho_asymptotic,
    rho_prime,
    sieve_range,
    t_exact,
    t_via_mobius,
    v_exact,
    v_via_abel,
)
from smoothlab.experiments import parse_config
from smoothlab.sieve import largest_prime_factor

NAN, INF = math.nan, math.inf
BIG = 1e300
HUGE = 10**400  # an int past the float range

#: Values that no real argument accepts, and those that no integer argument accepts.
REAL_BAD = (NAN, -INF)
INT_BAD = (NAN, INF, -INF, 1.5)
X_BAD = (NAN, INF, -INF, BIG)

# (name, call taking one argument, refused values)
ENTRY_POINTS = [
    ("psi.x", lambda v: psi(v, 7), X_BAD),
    ("psi.y", lambda v: psi(100, v), REAL_BAD),
    ("psi_enum_oracle.x", lambda v: psi_enum_oracle(v, 7), X_BAD),
    ("psi_enum_oracle.y", lambda v: psi_enum_oracle(100, v), REAL_BAD),
    ("psi_coprime.x", lambda v: psi_coprime(v, 7, 6), X_BAD),
    ("psi_coprime.y", lambda v: psi_coprime(100, v, 6), REAL_BAD),
    ("psi_coprime.d", lambda v: psi_coprime(100, 7, v), INT_BAD),
    ("psi_progression.lo", lambda v: psi_progression(v, 100, 7, 1, 3), INT_BAD),
    ("psi_progression.hi", lambda v: psi_progression(0, v, 7, 1, 3), INT_BAD + (BIG,)),
    ("psi_progression.y", lambda v: psi_progression(0, 100, v, 1, 3), REAL_BAD),
    ("psi_progression.a", lambda v: psi_progression(0, 100, 7, v, 3), INT_BAD),
    ("psi_progression.d", lambda v: psi_progression(0, 100, 7, 1, v), INT_BAD),
    ("SmoothRange.first", lambda v: SmoothRange(v, 100, 7), INT_BAD),
    ("SmoothRange.last", lambda v: SmoothRange(1, v, 7), INT_BAD + (BIG,)),
    ("SmoothRange.y", lambda v: SmoothRange(1, 100, v), REAL_BAD),
    ("sieve_range.lo", lambda v: sieve_range(v, 100), INT_BAD),
    ("sieve_range.hi", lambda v: sieve_range(1, v), INT_BAD + (BIG,)),
    ("is_smooth.n", lambda v: is_smooth(v, 7), INT_BAD + (BIG,)),
    ("is_smooth.y", lambda v: is_smooth(10, v), REAL_BAD),
    ("largest_prime_factor.n", largest_prime_factor, INT_BAD + (BIG,)),
    ("t_via_mobius.x", lambda v: t_via_mobius(v, 7, 1, 10), X_BAD),
    ("t_via_mobius.y", lambda v: t_via_mobius(100, v, 1, 10), REAL_BAD),
    ("t_via_mobius.a", lambda v: t_via_mobius(100, 7, v, 10), INT_BAD + (-BIG,)),
    ("t_via_mobius.delta", lambda v: t_via_mobius(100, 7, 1, v), REAL_BAD),
    ("granville_discrepancy.x", lambda v: granville_discrepancy(v, 7, 5), X_BAD),
    ("granville_discrepancy.y", lambda v: granville_discrepancy(100, v, 5), REAL_BAD),
    ("granville_discrepancy.delta", lambda v: granville_discrepancy(100, 7, v), REAL_BAD),
    ("ft_ratio_scan.x", lambda v: ft_ratio_scan(v, 7, [2]), X_BAD),
    ("ft_ratio_scan.y", lambda v: ft_ratio_scan(100, v, [2]), REAL_BAD),
    ("ft_ratio_scan.d", lambda v: ft_ratio_scan(100, 7, [2, v]), INT_BAD + (BIG,)),
    ("ScanConfig.a", lambda v: ScanConfig(x_grid=(10.0,), a_list=(v,), y=3.0), INT_BAD),
    ("ScanConfig.C", lambda v: ScanConfig(x_grid=(10.0,), a_list=(1,), C=v), REAL_BAD),
    ("ScanConfig.output_path",
     lambda v: ScanConfig(x_grid=(10.0,), a_list=(1,), y=3.0, output_path=v), ("",)),
] + [
    (f"{fn.__name__}.{arg}", call, bad)
    for fn in (t_exact, v_exact, v_via_abel, aux_averages)
    for arg, call, bad in (
        ("x", lambda v, fn=fn: fn(v, 7, 1), X_BAD),
        ("y", lambda v, fn=fn: fn(100, v, 1), REAL_BAD),
        ("a", lambda v, fn=fn: fn(100, 7, v), INT_BAD + (-BIG,)),
    )
]

REFUSALS = [
    pytest.param(call, value, id=f"{name}={value!r}")
    for name, call, bad in ENTRY_POINTS
    for value in bad
]


@pytest.mark.parametrize("call, value", REFUSALS)
def test_every_entry_point_refuses_a_bad_argument_before_it_allocates(call, value):
    tracemalloc.start()
    try:
        with pytest.raises(SmoothlabError):
            call(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: psi(100, INF), 100),
        (lambda: psi_enum_oracle(100, INF), 100),
        (lambda: is_smooth(97, INF), True),
        (lambda: psi_coprime(100, 7, 2**60 * 3), psi_coprime(100, 7, 6)),
        (lambda: psi_progression(0, 100, 7, 8, 2**60), 1),
        (lambda: t_via_mobius(100, 7, 1, INF).sigma2, 0.0),
        (lambda: t_via_mobius(100, 7, 1, BIG).sigma2, 0.0),
        (lambda: granville_discrepancy(100, 7, INF).delta, 100.0),
        (lambda: t_exact(100, 7, BIG), 0.0),
    ],
    ids=["psi-y-inf", "psi_enum_oracle-y-inf", "is_smooth-y-inf", "psi_coprime-d-past-2^52",
         "psi_progression-d-past-2^52", "mobius-delta-inf", "mobius-delta-1e300",
         "discrepancy-delta-inf", "t-shift-past-x"],
)
def test_documented_values_stay_accepted(call, expected):
    assert call() == expected


def test_one_x_refusal_for_every_entry_point():
    # x = 2^53 was a CapacityError from the discrepancy and the ratio scan, a
    # DomainError from psi_coprime; x < 1 gave the Moebius split a zero split.
    text = re.escape("x=9.0072e+15 exceeds supported bound 2^52")
    for call in (
        lambda: psi_coprime(2**53, 30, 2),
        lambda: granville_discrepancy(2**53, 30, 5),
        lambda: ft_ratio_scan(2**53, 30, [2]),
        lambda: t_via_mobius(2**53, 30, 1, 5),
    ):
        with pytest.raises(DomainError, match=text):
            call()
    for call in (lambda: t_exact(0.5, 30, 1), lambda: t_via_mobius(0.5, 30, 1, 5)):
        with pytest.raises(DomainError, match="x must be >= 1, got 0.5"):
            call()


def test_a_capacity_refusal_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            SmoothRange(1, 2**40, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scan_config_refuses_y_together_with_c():
    # C was silently ignored next to a y.
    with pytest.raises(DomainError, match="give y or C, not both"):
        ScanConfig(x_grid=(1e4,), a_list=(1,), y=3.0, C=2.0)
    cfg = ScanConfig(x_grid=(1e4,), a_list=(1,))
    assert cfg.y_for(1e4) == ScanConfig(x_grid=(1e4,), a_list=(1,), C=2.0).y_for(1e4)
    assert ScanConfig(x_grid=(1e4,), a_list=(1,), y=3.0).y_for(1e4) == 3.0
    with pytest.raises(DomainError, match="'C' on line 4 is read only when y is absent"):
        parse_config("x_grid = 1e4\ny = 3\na_list = 1\nC = 2.5\n")


def test_every_argument_check_lives_in_the_sieve_module():
    # One validation layer: no module keeps a copy of a check of its own.
    package = Path(smoothlab.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_check_"):
                    found.setdefault(node.name, []).append(path.name)
    assert "_check_x" in found and "_check_pass" in found
    assert {name: files for name, files in found.items() if files != ["sieve.py"]} == {}


# (name, call taking one argument): each answers for HUGE as it does for inf.
HUGE_AS_INF = [
    ("psi.y", lambda v: psi(100, v)),
    ("psi_enum_oracle.y", lambda v: psi_enum_oracle(100, v)),
    ("psi_coprime.y", lambda v: psi_coprime(100, v, 6)),
    ("psi_progression.y", lambda v: psi_progression(0, 100, v, 1, 3)),
    ("SmoothRange.y", lambda v: SmoothRange(1, 100, v).values.tolist()),
    ("is_smooth.y", lambda v: is_smooth(97, v)),
    ("t_via_mobius.y", lambda v: t_via_mobius(100, v, 1, 5)),
    ("t_via_mobius.delta", lambda v: t_via_mobius(100, 7, 1, v)),
    ("granville_discrepancy.y", lambda v: granville_discrepancy(100, v, 5)),
    ("granville_discrepancy.delta", lambda v: granville_discrepancy(100, 7, v)),
    ("ft_ratio_scan.y", lambda v: ft_ratio_scan(100, v, [2, 6])),
    ("main_terms.y", lambda v: main_terms(100, v, 5)),
    ("i_integral.y", lambda v: i_integral(100, v, build_rho_table(4))),
    ("range_check.C", lambda v: range_check(1e6, 7, C=v)),
    ("rho_asymptotic.u", rho_asymptotic),
    ("ScanConfig.y", lambda v: ScanConfig(x_grid=(1e4,), a_list=(1,), y=v).y_for(1e4)),
    ("ScanConfig.C", lambda v: ScanConfig(x_grid=(1e4,), a_list=(1,), C=v).y_for(1e4)),
] + [
    (f"{fn.__name__}.y", lambda v, fn=fn: fn(100, v, 1))
    for fn in (t_exact, v_exact, v_via_abel, aux_averages)
]

# Calls that refuse an x (or u) of HUGE, as each refuses a too-large float.
HUGE_REFUSED = [
    ("psi.x", lambda v: psi(v, 7)),
    ("psi_enum_oracle.x", lambda v: psi_enum_oracle(v, 7)),
    ("psi_coprime.x", lambda v: psi_coprime(v, 7, 6)),
    ("t_via_mobius.x", lambda v: t_via_mobius(v, 7, 1, 10)),
    ("granville_discrepancy.x", lambda v: granville_discrepancy(v, 7, 5)),
    ("ft_ratio_scan.x", lambda v: ft_ratio_scan(v, 7, [2])),
    ("main_terms.x", lambda v: main_terms(v, 7, 5)),
    ("i_integral.x", lambda v: i_integral(v, 7, build_rho_table(4))),
    ("psi_estimate.x", lambda v: psi_estimate(v, 7)),
    ("range_check.x", lambda v: range_check(v, 7)),
    ("build_rho_table.u_max", build_rho_table),
    ("rho.u", lambda v: rho(build_rho_table(4), v)),
    ("rho_prime.u", lambda v: rho_prime(build_rho_table(4), v)),
] + [
    (f"{fn.__name__}.x", lambda v, fn=fn: fn(v, 7, 1))
    for fn in (t_exact, v_exact, v_via_abel, aux_averages)
]


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in HUGE_AS_INF])
def test_an_int_past_the_float_range_answers_as_inf(call):
    # Each ended in an OverflowError from float().
    assert repr(call(HUGE)) == repr(call(INF))


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in HUGE_REFUSED])
def test_an_int_past_the_float_range_meets_the_refusal(call):
    with pytest.raises(SmoothlabError):
        call(HUGE)


def test_an_x_past_the_float_range_is_shown_without_converting():
    with pytest.raises(DomainError, match=re.escape("x=1e+400 exceeds supported bound 2^52")):
        psi(HUGE, 7)
    # A scan keeps such an x, like inf, and fails it on its own row.
    rows = convergence_scan(ScanConfig(x_grid=(1e4, HUGE), a_list=(1,), y=30.0))
    assert [(row.x, row.error) for row in rows] == [(1e4, None), (INF, "x must be finite, got inf")]
