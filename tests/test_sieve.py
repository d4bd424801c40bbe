import bisect
import importlib
import inspect
import math
import pkgutil
import random
import time
import tracemalloc

import numpy as np
import pytest

import smoothlab
import smoothlab.sieve as sieve_module
from smoothlab import (
    DEFAULT_SEGMENT_CAPACITY,
    CapacityError,
    DomainError,
    SmoothRange,
    ScanConfig,
    aux_averages,
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
    _PassContext,
    _tau_omega,
    largest_prime_factor,
    primes_upto,
)

from conftest import (
    oracle_factorize,
    oracle_is_smooth,
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


def _trial_division_primes(n):
    """The m in 2..n that no prime p <= sqrt(n) other than m divides."""
    small = [m for m in range(2, math.isqrt(n) + 1) if all(m % p for p in range(2, m))]
    values = np.arange(2, n + 1)
    for p in small:
        values = values[(values % p != 0) | (values == p)]
    return values.tolist()


def test_primes_upto_matches_trial_division():
    # One flag per odd number; 2 is prepended.
    below = _trial_division_primes(2000)
    for n in range(2001):
        got = primes_upto(n)
        assert got.dtype == np.int64
        assert got.tolist() == below[: bisect.bisect_right(below, n)], n
    for n in (2**20, 10**6 + 1):
        assert primes_upto(n).tolist() == _trial_division_primes(n)


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
            parts = [sieve_range(s, e) for s, e in _PassContext(1, n).segments()]
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
    for s, e in _PassContext(1, n).segments():
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
    # The segments of a stream's _PassContext alone decide the stream segment size.
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
        lambda: psi_progression(0, NAN, 7, 1, 3),
        lambda: psi_progression(0, 100, 7, 1, NAN),
        lambda: psi_progression(0, 100, 7, NAN, 3),
        lambda: psi_coprime(100, 7, NAN),
        lambda: psi_coprime(100, 7, 6.5),
        lambda: SmoothRange(1, NAN, 7),
        lambda: sieve_range(1, INF),
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


@pytest.mark.parametrize("lo, hi", [(1, 50), (2**31 - 20, 2**31 + 20), (2**52 - 40, 2**52)])
def test_table_dtypes_are_those_arith_table_documents(lo, hi):
    # The kernels work in the window's dtype (int32 below 2^31); the table
    # casts: int64 spf, lpf and phi, and int8 mu.
    t = sieve_range(lo, hi)
    assert [a.dtype for a in (t.spf, t.lpf, t.phi, t.mu)] == [np.int64] * 3 + [np.int8]


def test_is_smooth_examples():
    assert is_smooth(8, 2) is True
    assert is_smooth(10, 3) is False
    assert is_smooth(1, 2) is True
    with pytest.raises(DomainError):
        is_smooth(0, 2)


def test_is_smooth_checks_y_and_checks_n_once(monkeypatch):
    # A nan bound once answered False for n = 10 and True for n = 1.
    for n in (1, 10):
        with pytest.raises(DomainError, match="smoothness bound must be >= 1, got nan"):
            is_smooth(n, math.nan)
    checked = []

    def counted(value, what):
        checked.append(what)
        return check_int(value, what)

    check_int = sieve_module._check_int
    monkeypatch.setattr(sieve_module, "_check_int", counted)
    assert is_smooth(10, 5) and not is_smooth(14, 5.5)
    assert checked == ["n", "n"]


def test_is_smooth_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        y = rng.choice([2, 3, 5, 7.5, 19, 97, 1000.0])
        assert is_smooth(n, y) == (oracle_lpf(n) <= y)
    # y just below, at and above a prime, and no bound; n whose largest prime
    # is just below, at or above y, and squares of primes, where trial
    # division stops at the square root of what is left.
    ns = [96, 97, 194, 97**2, 98, 991 * 997, 991**2, 2 * 997, 2**20, 2**26 * 3**15]
    ns += list(range(1, 200))
    for y in (1, 1.5, 2, 96.5, 97, 97.5, 990.5, 991, 997.5, math.inf):
        assert [is_smooth(n, y) for n in ns] == [oracle_is_smooth(n, y) for n in ns]


def test_is_smooth_stops_dividing_at_y():
    # The whole largest prime factor of 2^52 - 47 (a prime) took 7 s to find.
    start = time.perf_counter()
    assert not is_smooth(2**52 - 47, 1e3)
    assert is_smooth(2**20 * 3**10, 3) and not is_smooth(2**20 * 3**10 * 1009, 1e3)
    assert time.perf_counter() - start < 1


def test_a_prime_near_2_52_is_factored_in_bounded_time():
    # Trial division up to sqrt(n) took 7.9 s and 8.3 s for these two calls.
    start = time.perf_counter()
    assert largest_prime_factor(4503599627370449) == 4503599627370449
    assert is_smooth(4503599627370449, 1e10) is False
    assert time.perf_counter() - start < 1


def test_scalar_helpers():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(96) == 3
    assert largest_prime_factor(360) == 5
    assert largest_prime_factor(991 * 997) == 997


def test_tau_omega_against_oracle():
    lo, hi = 9_990, 10_500
    tau, omega = _tau_omega(lo, hi, primes_upto(math.isqrt(hi)))
    for n in range(lo, hi + 1):
        assert tau[n - lo] == oracle_tau(n), n
        assert omega[n - lo] == oracle_omega(n), n
    tau1, omega1 = _tau_omega(1, 200, primes_upto(math.isqrt(200)))
    for n in range(1, 201):
        assert tau1[n - 1] == oracle_tau(n)
        assert omega1[n - 1] == oracle_omega(n)
