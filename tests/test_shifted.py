import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import (
    DomainError,
    ZETA2_INV,
    aux_averages,
    i_integral,
    main_terms,
    psi,
    t_exact,
    t_exact_fraction,
    t_via_mobius,
    v_exact,
    v_via_abel,
)

from smoothlab.shifted import _exact_sum

from conftest import oracle_mobius_split, oracle_t, oracle_v, stream_segment

SMALL_GRID = [
    (x, y, a)
    for x in (10, 100, 1000)
    for y in (3, 7, 19, 97)
    for a in (-3, -1, 1, 2, 6)
]


def test_t_exact_spec_examples():
    assert t_exact(10, 3, 1) == pytest.approx(454 / 105, rel=1e-14)
    assert t_exact_fraction(10, 3, 1) == Fraction(454, 105)
    # brute-force oracle pins the negative-shift case; the sum is
    # 1/2 + 2/3 + 1/2 + 4/5 + 6/7 + 2/3 + 2/5
    assert oracle_t(10, 3, -1) == Fraction(461, 105)
    assert t_exact_fraction(10, 3, -1) == Fraction(461, 105)
    assert t_exact(10, 3, -1) == pytest.approx(461 / 105, rel=1e-14)
    assert t_exact(5, 3, 7) == 0.0
    assert t_exact(7, 7, 7) == 0.0  # range (7, 7] is empty


def test_t_exact_matches_oracle_grid():
    for x, y, a in SMALL_GRID:
        expected = oracle_t(x, y, a)
        got = t_exact(x, y, a)
        assert got == pytest.approx(float(expected), rel=1e-12), (x, y, a)
        assert t_exact_fraction(x, y, a) == expected, (x, y, a)


def test_t_float_within_1e12_of_rational():
    for x, y, a in ((10**4, 19, 1), (10**4, 97, -3), (5000, 7, 2)):
        exact = t_exact_fraction(x, y, a)
        assert abs(t_exact(x, y, a) - float(exact)) <= 1e-12 * float(exact)


def test_t_exact_streaming_matches():
    full = t_exact(20000, 19, 5)
    with stream_segment(777):
        chunked = t_exact(20000, 19, 5)
    assert chunked == pytest.approx(full, rel=1e-13)


def test_t_exact_memory_does_not_grow_with_x():
    # Terms stream into fsum segment by segment, so the peak stays near one
    # segment's arrays; holding every term at once would take several MB.
    tracemalloc.start()
    try:
        with stream_segment(1 << 12):
            t_exact(5e5, 1e5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_t_domain_errors():
    with pytest.raises(DomainError):
        t_exact(10, 3, 0)
    with pytest.raises(DomainError):
        t_via_mobius(10, 3, 1, 0.5)
    for fn in (t_exact, t_exact_fraction, v_exact, v_via_abel, aux_averages):
        for y in (math.nan, 0.5):
            with pytest.raises(DomainError):
                fn(10, y, 1)
        for x in (math.nan, math.inf, 2.0**52 + 2):
            with pytest.raises(DomainError):
                fn(x, 3, 1)
        with pytest.raises(DomainError):
            fn(0.5, 3, 1)


def test_range_bounds_property():
    for x, y, a in SMALL_GRID:
        t = t_exact(x, y, a)
        if math.floor(x) > max(a, 0):
            # each term is phi(m)/m <= 1, so T is below the term count
            assert 0.0 < t <= psi(x, y)
        v = v_exact(x, y, a)
        assert 0.0 <= v <= x


def test_mobius_split_delta2_example():
    # frozen from the brute-force oracle run: sigma1 = 5, sigma2 = -71/105
    s1, s2 = oracle_mobius_split(10, 3, 1, 2)
    assert (s1, s2) == (Fraction(5), Fraction(-71, 105))
    split = t_via_mobius(10, 3, 1, 2)
    assert split.sigma1 == pytest.approx(5.0, abs=1e-12)
    assert split.sigma2 == pytest.approx(-71 / 105, abs=1e-12)
    assert split.total == pytest.approx(454 / 105, rel=1e-12)
    assert (split.sigma1, split.sigma2) == (float(s1), float(s2))


def test_mobius_identity_full_cutoff():
    for x, y, a in SMALL_GRID:
        t = t_exact(x, y, a)
        split = t_via_mobius(x, y, a, x)
        assert abs(split.total - t) <= 1e-9 * (1.0 + abs(t)), (x, y, a)


def test_mobius_tail_empty_at_full_cutoff_positive_shift():
    split = t_via_mobius(100, 7, 3, 100)
    assert split.sigma2 == 0.0


def test_mobius_split_matches_oracle():
    for x, y, a, delta in ((50, 3, 1, 7), (100, 7, -2, 10), (60, 5, 2, 60)):
        s1, s2 = oracle_mobius_split(x, y, a, delta)
        split = t_via_mobius(x, y, a, delta)
        assert split.sigma1 == pytest.approx(float(s1), abs=1e-12)
        assert split.sigma2 == pytest.approx(float(s2), abs=1e-12)


def test_sigma2_truncation_bound():
    x = 10**4
    for delta in (10, 100, 1000):
        split = t_via_mobius(x, 19, 1, delta)
        assert abs(split.sigma2) <= 2 * x / delta


def test_v_exact_examples():
    assert v_exact(10, 3, 1) == pytest.approx(18 / 7, rel=1e-14)
    assert v_exact(10, 3, 1) == float(Fraction(18, 7))  # one exactly rounded division
    assert v_exact(10, 2, 1) == pytest.approx(9 / 4, rel=1e-14)
    assert v_exact(5, 3, 7) == 0.0


def test_v_exact_matches_oracle_grid():
    for x, y, a in SMALL_GRID:
        assert v_exact(x, y, a) == float(oracle_v(x, y, a)), (x, y, a)


def test_abel_identity():
    for x, y, a in SMALL_GRID:
        ve = v_exact(x, y, a)
        va = v_via_abel(x, y, a)
        assert abs(va - ve) <= 1e-9 * (1.0 + abs(ve)), (x, y, a)


def test_abel_negative_shift_and_fractional_x():
    assert v_via_abel(10, 3, -2) == pytest.approx(v_exact(10, 3, -2), rel=1e-12)
    assert v_via_abel(10.5, 3, 1) == pytest.approx(v_exact(10.5, 3, 1), rel=1e-12)


def test_abel_streaming_matches():
    whole = v_via_abel(20000, 19, 3)
    with stream_segment(777):
        assert v_via_abel(20000, 19, 3) == pytest.approx(whole, rel=1e-12)


def test_main_terms():
    mt = main_terms(1e6, 1e3, 306853)
    assert mt.zeta2_inv == pytest.approx(0.6079271019, abs=1e-10)
    assert mt.t_main == pytest.approx(306853 * 6 / math.pi**2, rel=1e-15)
    # numeric cross-check of the example magnitude
    assert mt.t_main == pytest.approx(186544.25, abs=0.5)
    assert mt.v_main == pytest.approx(3.0 * 1e6 / math.pi**2, rel=1e-15)
    assert main_terms(10, 3, 7).v_main == pytest.approx(30 / math.pi**2, rel=1e-15)
    assert mt.err_scale == pytest.approx(
        math.log(math.log(1e6)) * math.log(math.log(1e3)) / math.log(1e3), rel=1e-15
    )
    with pytest.raises(DomainError):
        main_terms(10, 3, 0)


@pytest.mark.parametrize(
    "x, y, psi_value",
    [
        (math.nan, 7, 5),
        (math.inf, 7, 5),
        (-math.inf, 7, 5),
        (100, math.nan, 5),
        (100, 7, math.nan),
        (100, 7, math.inf),
    ],
)
def test_main_terms_rejects_non_finite_inputs(x, y, psi_value):
    # nan used to pass through to a nan v_main, err_scale or t_main.
    with pytest.raises(DomainError):
        main_terms(x, y, psi_value)


def test_main_terms_err_scale_undefined_marker():
    assert math.isnan(main_terms(10, 2, 4).err_scale)
    assert math.isnan(main_terms(2, 2, 2).err_scale)
    assert not math.isnan(main_terms(10, 3, 7).err_scale)


def test_zeta2_inv_matches_series():
    # slowly converging reference sum with tail correction
    n = 200000
    partial = sum(1.0 / k**2 for k in range(n, 0, -1))
    zeta2 = partial + 1.0 / n  # tail of sum 1/k^2 is ~1/n
    assert ZETA2_INV == pytest.approx(1.0 / zeta2, rel=1e-9)


def test_i_integral_examples(rho_table):
    res = i_integral(100, 100, rho_table)
    assert res.value == pytest.approx((100.0**2 - 1.0) / 2.0, rel=1e-10)
    assert res.comparator == pytest.approx(5000.0, rel=1e-12)
    assert i_integral(1, 50, rho_table).value == 0.0
    with pytest.raises(DomainError):
        i_integral(2.0 ** (33 * 10), 2, rho_table)  # u beyond the table


def test_i_integral_comparator_band(rho_table):
    res = i_integral(1e6, 1e3, rho_table)
    assert 0.9 <= res.value / res.comparator <= 1.3
    assert res.error_estimate <= 1e-8 * abs(res.value)


def test_aux_averages():
    got = aux_averages(10, 3, 1)
    assert got.tau_avg == pytest.approx(13 / 7, rel=1e-14)
    assert got.omega_avg == pytest.approx(5 / 7, rel=1e-14)
    assert aux_averages(5, 3, 7) == (0.0, 0.0)


@pytest.mark.parametrize("fn", [t_exact, v_exact, v_via_abel, aux_averages])
@pytest.mark.parametrize("a", [7, -3])
def test_shifted_sums_test_each_n_for_smoothness_once(fn, a, smooth_mask_entries):
    fn(20000.5, 30, a)
    assert sum(smooth_mask_entries) <= 20000


def test_aux_averages_matches_oracle():
    from conftest import oracle_omega, oracle_smooth_list, oracle_tau

    for x, y, a in ((100, 7, 2), (300, 5, -3)):
        smooth = oracle_smooth_list(max(a, 0), x, y)
        count = len(oracle_smooth_list(0, x, y))
        tau_avg = sum(oracle_tau(n - a) for n in smooth) / count
        omega_avg = sum(oracle_omega(n - a) for n in smooth) / count
        got = aux_averages(x, y, a)
        assert got.tau_avg == pytest.approx(tau_avg, rel=1e-12)
        assert got.omega_avg == pytest.approx(omega_avg, rel=1e-12)


def _fsum_hex(chunks):
    return math.fsum(v for chunk in chunks for v in chunk.tolist()).hex()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)
        | st.sampled_from([1.0, -1.0, 2.0**-53, 5e-324, 0.1, -0.0]),
        max_size=300,
    ),
    st.lists(st.integers(0, 300), max_size=3),
)
def test_exact_sum_matches_fsum_on_random_arrays(values, cuts):
    chunks = np.split(np.array(values, dtype=np.float64), sorted(c % (len(values) + 1) for c in cuts))
    assert _exact_sum(chunks).hex() == _fsum_hex(chunks)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.0, 2.0**-53],  # a half-ulp tie rounds to even: down
        [1.0 + 2.0**-52, 2.0**-53],  # ... and up
        [1.0, 2.0**-53, 2.0**-160],  # just past the tie
        [1.0, -(2.0**-54), -(2.0**-107)],
        [1.0] * 5000,
        [0.1] * (1 << 22),  # more equal terms than one bincount slice
        [1e300, 1.0, -1e300, 5e-324, -2.5e-310, 3.0, 2.0**-1074 * 3],
        [2.0**k * (-1) ** k for k in range(-1074, 1000, 7)],
        [-0.0, 0.0, -0.0],
    ],
    ids=[
        "empty", "tie-even-down", "tie-even-up", "past-tie", "below-one", "ones",
        "2^22-equal", "cancel", "mixed-exponents", "zeros",
    ],
)
def test_exact_sum_matches_fsum_on_adversarial_arrays(values):
    chunks = [np.array(values, dtype=np.float64)]
    assert _exact_sum(chunks).hex() == _fsum_hex(chunks)
    assert _exact_sum(chunks[:0]) == 0.0
