"""Shared brute-force oracles for the test suite.

Everything here factors integers one at a time (trial division by d < 1024,
then Miller-Rabin and Pollard's rho for what is left, so that values near
2^52 stay cheap) and sums with exact rationals; none of it touches the
package's sieve or table machinery, so these are independent references,
not shortcuts.  The fixtures and ``stream_segment`` below only count or
resize the sieve's windows.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest


#: Miller-Rabin with these bases is exact for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _oracle_split(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 1024 (Pollard's rho)."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def oracle_factorize(n: int) -> list[tuple[int, int]]:
    assert n >= 1
    out = Counter()
    d = 2
    while d * d <= n and d < 1024:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _oracle_is_prime(m):
            out[m] += 1
        else:
            f = _oracle_split(m)
            rest += [f, m // f]
    return sorted(out.items())


def oracle_phi(n: int) -> int:
    result = n
    for p, _ in oracle_factorize(n):
        result -= result // p
    return result


def oracle_mu(n: int) -> int:
    fac = oracle_factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def oracle_lpf(n: int) -> int:
    fac = oracle_factorize(n)
    return fac[-1][0] if fac else 1


def oracle_spf(n: int) -> int:
    fac = oracle_factorize(n)
    return fac[0][0] if fac else 1


def oracle_is_smooth(n: int, y: float) -> bool:
    return oracle_lpf(n) <= y


def oracle_smooth_list(lo: int, hi: int, y: float) -> list[int]:
    """Smooth integers in (lo, hi] by per-integer factorization."""
    return [n for n in range(max(lo, 0) + 1, hi + 1) if oracle_is_smooth(n, y)]


def oracle_t(x: int, y: float, a: int) -> Fraction:
    total = Fraction(0)
    for n in oracle_smooth_list(max(a, 0), x, y):
        total += Fraction(oracle_phi(n - a), n - a)
    return total


def oracle_v(x: int, y: float, a: int) -> Fraction:
    psi = len(oracle_smooth_list(0, x, y))
    total = sum(oracle_phi(n - a) for n in oracle_smooth_list(max(a, 0), x, y))
    return Fraction(total, psi)


def oracle_mobius_split(x: int, y: float, a: int, delta: float):
    """Exact (sigma1, sigma2) of the truncated Moebius expansion by loops."""
    smooth = oracle_smooth_list(max(a, 0), x, y)
    d_max = x - min(a, 0)
    s1, s2 = Fraction(0), Fraction(0)
    for d in range(1, d_max + 1):
        m = oracle_mu(d)
        if m == 0:
            continue
        count = sum(1 for n in smooth if (n - a) % d == 0)
        term = Fraction(m * count, d)
        if d <= delta:
            s1 += term
        else:
            s2 += term
    return s1, s2


def oracle_discrepancy(x: float, y: float, delta: float, z_mode: str):
    """(z values, [(d, exact worst deviation)]) of the progression discrepancy by loops.

    For each d <= min(delta, x) and each probed z, the worst over residues
    a coprime to d of |#{smooth n <= z : n = a mod d} - #{smooth n <= z
    coprime to d} / phi(d)|.  The z grid is x alone, or x divided by 2^(1/4)
    while the quotient stays >= 16, in increasing order.
    """
    z_values = [x]
    if z_mode == "max_over_grid":
        while z_values[-1] / 2.0**0.25 >= 16.0:
            z_values.append(z_values[-1] / 2.0**0.25)
        z_values.reverse()
    smooth = oracle_smooth_list(0, math.floor(x), y)
    rows = []
    for d in range(1, math.floor(min(delta, x)) + 1):
        residues = [a for a in range(1, d + 1) if math.gcd(a, d) == 1]
        worst = Fraction(0)
        for z in z_values:
            below = [n for n in smooth if n <= z]
            share = Fraction(sum(1 for n in below if math.gcd(n, d) == 1), oracle_phi(d))
            counts = Counter(n % d for n in below)
            for a in residues:
                worst = max(worst, abs(counts[a % d] - share))
        rows.append((d, worst))
    return z_values, rows


def oracle_tau(n: int) -> int:
    t = 1
    for _, e in oracle_factorize(n):
        t *= e + 1
    return t


def oracle_omega(n: int) -> int:
    return len(oracle_factorize(n))


def stream_segment(size: int):
    """Context manager: every stream splits its range into ``size``-entry segments.

    A ``patch.object``, not the monkeypatch fixture, so that it also works
    inside hypothesis tests.
    """
    from smoothlab import sieve

    return patch.object(sieve, "STREAM_SEGMENT", size)


@pytest.fixture
def smooth_mask_entries(monkeypatch):
    """The window size of every smoothness-mask call made while the test runs."""
    from smoothlab import census, shifted

    entries = []
    kernel = census._smooth_mask

    def counted(lo, hi, y):
        entries.append(hi - lo + 1)
        return kernel(lo, hi, y)

    for module in (census, shifted):
        monkeypatch.setattr(module, "_smooth_mask", counted)
    return entries


@pytest.fixture
def phi_window_entries(monkeypatch):
    """The window size of every totient-window sieve made while the test runs."""
    from smoothlab import sieve

    entries = []
    strip = sieve._strip_primes

    def counted(lo, hi, bound, phi=False):
        if phi:
            entries.append(hi - lo + 1)
        return strip(lo, hi, bound, phi)

    monkeypatch.setattr(sieve, "_strip_primes", counted)
    return entries


@pytest.fixture(scope="session")
def rho_table():
    from smoothlab import build_rho_table

    return build_rho_table(u_max=32.0)
