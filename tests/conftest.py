"""Shared brute-force oracles for the test suite.

Everything here factors integers one at a time (trial division by d < 1024,
then Miller-Rabin and Pollard's rho for what is left, so that values near
2^52 stay cheap) and sums with exact rationals, except the float T, which
is ``math.fsum`` of its rounded terms, and the summatory totient, which
sieves a list of its own and recurses on quotients; none
of it touches the package's sieve or table machinery, so these are
independent references, not shortcuts.  The fixtures, ``stream_segment``
and ``read_block`` below only count or resize the sieve's windows, and
``minor_faults`` counts the process's page faults.
"""

import itertools
import math
import resource
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace
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


def oracle_t_float(x: int, y: float, a: int) -> float:
    """The float T: math.fsum of the correctly rounded terms phi(n - a) / (n - a)."""
    return math.fsum(oracle_phi(n - a) / (n - a) for n in oracle_smooth_list(max(a, 0), x, y))


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


def oracle_totient_sum(top: int) -> int:
    """Phi(top), the sum of phi(k) over 1 <= k <= top.

    Phi(v) = v(v + 1)/2 - sum over d >= 2 of Phi(v // d), one term per run
    of equal quotients; a totient sieve gives Phi below top^(2/3).
    """
    head = round(top ** (2 / 3))
    phi = list(range(head + 1))
    for p in range(2, head + 1):
        if phi[p] == p:
            for m in range(p, head + 1, p):
                phi[m] -= phi[m] // p
    small = list(itertools.accumulate(phi))
    large = {}

    def total(v: int) -> int:
        if v <= head:
            return small[v]
        if v not in large:
            s, d = v * (v + 1) // 2, 2
            while d <= v:
                q = v // d
                end = v // q  # the largest d' with v // d' = q
                s -= (end - d + 1) * total(q)
                d = end + 1
            large[v] = s
        return large[v]

    return total(top)


def stream_segment(size: int):
    """Context manager: every stream splits its range into ``size``-entry segments.

    A ``patch.object``, not the monkeypatch fixture, so that it also works
    inside hypothesis tests.
    """
    from smoothlab import sieve

    return patch.object(sieve, "STREAM_SEGMENT", size)


def read_block(size: int):
    """Context manager: every sieved segment is read in blocks of ``size`` entries.

    A window is one block of a union strip, or whole blocks of a mask with
    at most ``size`` smooth n.  Like ``stream_segment``, a ``patch.object``
    that works inside hypothesis tests.  A small size puts window edges
    inside segments, bands and cuts.
    """
    from smoothlab import sieve

    return patch.object(sieve, "_READ_BLOCK", size)


@contextmanager
def forced_route(route: str):
    """Context manager: every shifted-totient pass takes ``route``, "sieve" or "generated".

    A pass has these two routes, and ``sieve._generated_smooth`` picks one
    from the pass's arguments alone.  This patches that one seam: to None
    for the sieve, or to every smooth n of the pass, past the sparse rule
    and ``GENERATED_CAPACITY``.  It yields a list that gets one entry per
    call of the forced route's kernel, so a test can see that route run.
    """
    from smoothlab import sieve

    def choose(lo, hi, y, shifts):
        if route == "sieve":
            return None
        values = sieve._smooth_upto(hi, y, math.inf)
        return values[values > lo]

    name = {"sieve": "_sieve_phi_segment", "generated": "_generated_phi_segments"}[route]
    kernel = getattr(sieve, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with patch.object(sieve, "_generated_smooth", choose), patch.object(sieve, name, counted):
        yield calls


@contextmanager
def minor_faults():
    """Context manager: the minor page faults this process makes inside the block.

    It yields a namespace whose ``count`` is set on exit to the change of
    ``getrusage`` ``ru_minflt`` across the block.
    """
    faults = SimpleNamespace(count=None)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        yield faults
    finally:
        faults.count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.fixture
def smooth_mask_entries(monkeypatch):
    """The number of n tested for smoothness by each kernel call made while the test runs.

    Counts the window of every smoothness mask and the range (lo, hi] of
    every ``_reduce_pass`` pass, which settles each of those n once for
    all its shifts: by a mask or union strip per segment, or by generating
    the smooth n.
    """
    from smoothlab import census, shifted

    entries = []
    kernel, reduced = census._smooth_mask, shifted._reduce_pass

    def counted(lo, hi, y, context):
        entries.append(hi - lo + 1)
        return kernel(lo, hi, y, context)

    def counted_reduced(lo, hi, y, shifts, reduce):
        entries.append(max(hi - lo, 0))
        return reduced(lo, hi, y, shifts, reduce)

    for module in (census, shifted):
        monkeypatch.setattr(module, "_smooth_mask", counted)
    monkeypatch.setattr(shifted, "_reduce_pass", counted_reduced)
    return entries


@pytest.fixture
def advance_calls(monkeypatch):
    """The unit K of every rho series step built while the test runs."""
    from smoothlab import dickman

    calls = []
    step = dickman._advance_unit

    def counted(b, K):
        calls.append(K)
        return step(b, K)

    monkeypatch.setattr(dickman, "_advance_unit", counted)
    return calls


@pytest.fixture
def phi_window_entries(monkeypatch):
    """The window size of every totient-window sieve made while the test runs."""
    from smoothlab import sieve

    entries = []
    strip = sieve._strip_primes

    def counted(lo, hi, primes, kind="part", out=None):
        if kind == "phi":
            entries.append(hi - lo + 1)
        return strip(lo, hi, primes, kind, out)

    monkeypatch.setattr(sieve, "_strip_primes", counted)
    return entries


@pytest.fixture
def strip_windows(monkeypatch):
    """The window (lo, hi) of every prime strip made while the test runs.

    Every sieve kernel that reads a window, the smoothness masks included,
    strips it through ``sieve._strip_primes``; so no window is sieved
    without being seen here.
    """
    from smoothlab import sieve

    windows = []
    strip = sieve._strip_primes

    def counted(lo, hi, primes, kind="part", out=None):
        windows.append((lo, hi))
        return strip(lo, hi, primes, kind, out)

    monkeypatch.setattr(sieve, "_strip_primes", counted)
    return windows


@pytest.fixture
def quotient_counts(monkeypatch):
    """(x, y, number of reads) of every quotient count of psi made while the test runs.

    Every count goes through ``census._psi_quotients``: ``psi`` and
    ``_coprime_counts``, which ``psi_coprime`` and ``ft_ratio_scan`` read,
    are its only callers.
    """
    from smoothlab import census

    calls = []
    count = census._psi_quotients

    def counted(top, y, es):
        es = list(es)
        calls.append((top, y, len(es)))
        return count(top, y, es)

    monkeypatch.setattr(census, "_psi_quotients", counted)
    return calls


@pytest.fixture(scope="session")
def rho_table():
    from smoothlab import build_rho_table

    return build_rho_table(u_max=32.0)
