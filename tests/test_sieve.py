import importlib
import inspect
import math
import pkgutil
import random
import tracemalloc

import numpy as np
import pytest

import smoothlab
from smoothlab import (
    DEFAULT_SEGMENT_CAPACITY,
    CapacityError,
    DomainError,
    SmoothRange,
    ScanConfig,
    aux_averages,
    enumerate_smooth,
    ft_ratio_scan,
    is_smooth,
    psi_coprime,
    psi_progression,
    sieve_range,
    t_exact,
    t_via_mobius,
    v_exact,
    v_via_abel,
)
from smoothlab.sieve import (
    largest_prime_factor,
    primes_upto,
    segment_bounds,
    tau_omega_range,
)

from conftest import (
    oracle_factorize,
    oracle_lpf,
    oracle_mu,
    oracle_omega,
    oracle_phi,
    oracle_spf,
    oracle_tau,
    stream_segment,
)


def test_spec_examples():
    t = sieve_range(1, 12)
    assert t.phi_of(12) == 4
    assert t.mu_of(12) == 0
    assert t.lpf_of(12) == 3
    assert t.spf_of(12) == 2

    t1 = sieve_range(1, 1)
    assert (t1.phi_of(1), t1.mu_of(1), t1.lpf_of(1), t1.spf_of(1)) == (1, 1, 1, 1)

    t97 = sieve_range(97, 97)
    assert t97.phi_of(97) == 96
    assert t97.mu_of(97) == -1
    assert t97.spf_of(97) == 97 == t97.lpf_of(97)


def test_against_factorization_oracle_small():
    t = sieve_range(1, 3000)
    for n in range(1, 3001):
        assert t.spf_of(n) == oracle_spf(n)
        assert t.lpf_of(n) == oracle_lpf(n)
        assert t.phi_of(n) == oracle_phi(n)
        assert t.mu_of(n) == oracle_mu(n)


def test_against_factorization_oracle_offset_segment():
    lo, hi = 123_400, 123_700
    t = sieve_range(lo, hi)
    for n in range(lo, hi + 1):
        assert t.spf_of(n) == oracle_spf(n), n
        assert t.lpf_of(n) == oracle_lpf(n), n
        assert t.phi_of(n) == oracle_phi(n), n
        assert t.mu_of(n) == oracle_mu(n), n


def test_structural_invariants_random_segment():
    rng = random.Random(42)
    lo = rng.randrange(1, 10**6)
    t = sieve_range(lo, lo + 5000)
    prime_set = set(int(p) for p in primes_upto(math.isqrt(lo + 5000) + 1))
    for n in rng.sample(range(lo, lo + 5001), 400):
        spf, lpf = t.spf_of(n), t.lpf_of(n)
        if n == 1:
            assert spf == lpf == 1
            continue
        assert n % spf == 0 and n % lpf == 0
        assert 2 <= spf <= lpf <= n
        # spf/lpf are prime: small ones by table, large ones by trial division
        if spf in prime_set or spf <= max(prime_set, default=1):
            assert spf in prime_set or oracle_spf(spf) == spf
        assert oracle_spf(lpf) == lpf
        assert t.phi_of(n) < n
        assert t.mu_of(n) in (-1, 0, 1)
        assert (t.mu_of(n) == 0) == any(e > 1 for _, e in oracle_factorize(n))


def test_totient_divisor_sum_identity():
    # sum of phi(d) over d | n equals n
    t = sieve_range(1, 600)
    for n in (1, 2, 12, 97, 360, 599, 600):
        total = sum(t.phi_of(d) for d in range(1, n + 1) if n % d == 0)
        assert total == n


def test_phi_of_prime():
    t = sieve_range(1, 1000)
    for p in (2, 3, 5, 97, 991):
        assert t.phi_of(p) == p - 1


def test_segment_independence():
    n = 10**4
    whole = sieve_range(1, n)
    for k in (2, 3, 7):
        with stream_segment(-(-n // k)):
            parts = [sieve_range(s, e) for s, e in segment_bounds(1, n)]
        assert len(parts) == k
        for name in ("spf", "lpf", "phi", "mu"):
            merged = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(merged, getattr(whole, name)), (k, name)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(7)
    t = sieve_range(1, 10**5)
    done = 0
    while done < 200:
        m = rng.randrange(2, 500)
        n = rng.randrange(2, 10**5 // m)
        if math.gcd(m, n) != 1:
            continue
        assert t.phi_of(m * n) == t.phi_of(m) * t.phi_of(n)
        assert t.mu_of(m * n) == t.mu_of(m) * t.mu_of(n)
        done += 1


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
def test_mertens_sanity(n):
    total = 0
    for s, e in segment_bounds(1, n):
        total += int(sieve_range(s, e).mu.sum(dtype=np.int64))
    assert abs(total) <= n**0.6


def test_domain_and_capacity_errors():
    with pytest.raises(DomainError):
        sieve_range(0, 10)
    with pytest.raises(DomainError):
        sieve_range(5, 4)
    with pytest.raises(DomainError):
        sieve_range(1, (1 << 52) + 1)
    # One entry past the window cap is refused before anything is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            sieve_range(1, DEFAULT_SEGMENT_CAPACITY + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_no_function_takes_a_segment_size():
    # segment_bounds alone decides the stream segment size.
    objects = [getattr(smoothlab, name) for name in smoothlab.__all__]
    for info in pkgutil.iter_modules(smoothlab.__path__):
        module = importlib.import_module(f"smoothlab.{info.name}")
        objects += [v for v in vars(module).values() if inspect.getmodule(v) is module]
    functions = []
    for obj in objects:
        if inspect.isclass(obj):
            functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
        elif inspect.isfunction(obj):
            functions.append(obj)
    assert sieve_range in functions and SmoothRange.__init__ in functions
    for fn in functions:
        assert "capacity" not in inspect.signature(fn).parameters, fn.__qualname__


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_smooth(0, NAN, 7)),
        lambda: psi_progression(0, NAN, 7, 1, 3),
        lambda: psi_progression(0, 100, 7, 1, NAN),
        lambda: psi_progression(0, 100, 7, NAN, 3),
        lambda: psi_coprime(100, 7, NAN),
        lambda: psi_coprime(100, 7, 6.5),
        lambda: SmoothRange(1, NAN, 7),
        lambda: sieve_range(1, INF),
        lambda: tau_omega_range(1, NAN),
        lambda: is_smooth(NAN, 7),
        lambda: sieve_range(1, 50).phi_of(2.5),
        lambda: t_exact(100, 7, 1.5),
        lambda: ft_ratio_scan(100, 7, [NAN]),
        lambda: ft_ratio_scan(100, 7, [2, 6.5]),
        lambda: ScanConfig(x_grid=(10.0,), a_list=(NAN,), y=3.0),
    ]
    + [
        (lambda f=f, a=a: f(100, 7, a))
        for f in (t_exact, v_exact, v_via_abel, aux_averages)
        for a in (NAN, INF, -INF)
    ]
    + [(lambda a=a: t_via_mobius(100, 7, a, 10)) for a in (NAN, INF, -INF)],
)
def test_integer_arguments_must_be_integral(call):
    # nan and the infinities once raised ValueError or OverflowError from int(),
    # and a fraction was silently truncated.
    with pytest.raises(DomainError):
        call()


def test_sieve_keeps_no_window_cache():
    assert sieve_range(1, 50) is not sieve_range(1, 50)


def test_table_is_immutable():
    t = sieve_range(1, 50)
    with pytest.raises(ValueError):
        t.phi[0] = 99


def test_is_smooth_examples():
    assert is_smooth(8, 2) is True
    assert is_smooth(10, 3) is False
    assert is_smooth(1, 2) is True
    with pytest.raises(DomainError):
        is_smooth(0, 2)


def test_is_smooth_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        y = rng.choice([2, 3, 5, 7.5, 19, 97, 1000.0])
        assert is_smooth(n, y) == (oracle_lpf(n) <= y)


def test_scalar_helpers():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(96) == 3
    assert largest_prime_factor(360) == 5
    assert largest_prime_factor(991 * 997) == 997


def test_tau_omega_against_oracle():
    lo, hi = 9_990, 10_500
    tau, omega = tau_omega_range(lo, hi)
    for n in range(lo, hi + 1):
        assert tau[n - lo] == oracle_tau(n), n
        assert omega[n - lo] == oracle_omega(n), n
    tau1, omega1 = tau_omega_range(1, 200)
    for n in range(1, 201):
        assert tau1[n - 1] == oracle_tau(n)
        assert omega1[n - 1] == oracle_omega(n)
