"""Output checks, run after the timed loop.

Each CLI output is checked against a reference that does not share the
code path under test where one exists at desk scale:

    psi         psi_enum_oracle (prime-power enumeration, no sieve), or for
                y >= sqrt(x) the closed form floor(x) - sum over primes
                y < p <= x of floor(x/p) on this module's own prime sieve
    vsum v      v_via_abel (partial summation), 1e-9 relative
    tsum total  the T printed on the same line, 1e-9 relative
    rho         closed forms on [0, 2]; elsewhere this module's own
                midpoint series in 40-digit decimal arithmetic, 1e-9
                relative, and rho_log of a library table against the
                same series, 1e-9 absolute

Every other field (T and its ratio, the Moebius split, V's main term,
discrepancy totals, ft ratios, rho, scan stdout and CSV rows) is compared
byte for byte with the goldens recorded by ``record_goldens.py``.

For u above about 130, rho is below exp(-700) and the CLI prints 0, so
its output carries no signal there.  The rho_log check covers those u: it
evaluates the series of a table built by ``build_rho_table``.  That table
is built once for the checks, up to the workload's largest u; it is not
the table the timed command built.
"""

import json
import math
import os
from decimal import Decimal, localcontext

import numpy as np

from smoothlab import build_rho_table, psi_enum_oracle, rho_log, v_via_abel

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

REL_TOL = 1e-9

#: Kinds whose whole output is checked by an independent reference.
NO_GOLDEN = {"psi"}

#: Fields of other kinds checked by an independent reference, not a golden.
INDEPENDENT_FIELDS = {"vsum": {"v"}, "tsum_delta": {"total"}}

#: The reference rho series covers u up to this value.
RHO_U_MAX = 1000

#: Digits and degree of the reference rho series; its terms at |s| <= 1/2
#: fall like 3^-i, so the truncation error is far below 1e-30.
RHO_DIGITS = 40
RHO_DEGREE = 80

#: rho below exp(LOG_UNDERFLOW) prints as 0; within LOG_MARGIN of it either is accepted.
LOG_UNDERFLOW = -700.0
LOG_MARGIN = 1e-6


def rho_series(units):
    """Decimal series of rho(K + 1/2 + s), |s| <= 1/2, for K = 1 .. units - 1.

    Written apart from ``smoothlab.dickman``: the delay relation
    u rho'(u) = -rho(u - 1) gives every coefficient but the constant one
    from the previous unit's series b, and the identity
    K rho(K) = integral of rho over [K - 1, K] = sum over even i of
    b_i / (2^i (i + 1)) fixes the constant one at the unit's left end.
    Entry K of the result is the list of coefficients (entry 0 is None).
    """
    series = [None] * units
    with localcontext() as ctx:
        ctx.prec = RHO_DIGITS
        # Unit [1, 2]: rho(3/2 + s) = 1 - log(3/2) - log(1 + 2s/3).
        r = Decimal(-2) / 3
        b = [1 - Decimal("1.5").ln()] + [r**i / i for i in range(1, RHO_DEGREE + 1)]
        series[1] = b
        for K in range(2, units):
            a = K + Decimal("0.5")
            c = [Decimal(0)] * (RHO_DEGREE + 1)
            for j in range(RHO_DEGREE):
                c[j + 1] = -(b[j] + j * c[j]) / (a * (j + 1))
            area = sum(b[i] / (2**i * (i + 1)) for i in range(0, RHO_DEGREE + 1, 2))
            c[0] = area / K - sum(c[i] * Decimal(-0.5) ** i for i in range(1, RHO_DEGREE + 1))
            series[K] = b = c
    return series


def rho_reference(series, u):
    """rho(u) as a Decimal, for 2 < u <= len(series)."""
    K = min(math.floor(u), len(series) - 1)
    with localcontext() as ctx:
        ctx.prec = RHO_DIGITS
        s = Decimal(u) - K - Decimal("0.5")
        val = Decimal(0)
        for coef in reversed(series[K]):
            val = val * s + coef
    return val


def load_goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def parse_fields(stdout):
    """stdout as a list of lines, each a list of (key, value) pairs."""
    return [[tuple(kv.split("=", 1)) for kv in line.split()] for line in stdout.splitlines()]


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class References:
    """Independent reference values, with the tables they need built once."""

    def __init__(self):
        self._prime_mask = np.zeros(0, dtype=bool)
        self._rho_series = None
        self._rho_table = None

    def _primes_between(self, lo, hi):
        """Primes p with lo < p <= hi, by a plain Eratosthenes sieve."""
        if len(self._prime_mask) <= hi:
            n = hi + 1
            mask = np.ones(n, dtype=bool)
            mask[:2] = False
            for p in range(2, math.isqrt(hi) + 1):
                if mask[p]:
                    mask[p * p :: p] = False
            self._prime_mask = mask
        return np.flatnonzero(self._prime_mask[lo + 1 : hi + 1]) + lo + 1

    def psi(self, x, y):
        top = math.floor(x)
        if y * y >= top:
            # Every n <= x has at most one prime factor above sqrt(x).
            primes = self._primes_between(min(math.floor(y), top), top)
            return top - int(np.sum(top // primes))
        return psi_enum_oracle(x, y)

    def rho(self, u, printed):
        """None when ``printed`` is rho(u) and the library's rho_log(u) is right, else why not."""
        if u <= 2.0:
            want = 1.0 if u <= 1.0 else 1.0 - math.log(u)
            return None if _close(printed, want) else f"rho={printed!r}, closed form {want!r}"
        if self._rho_series is None:
            self._rho_series = rho_series(RHO_U_MAX)
            self._rho_table = build_rho_table(u_max=RHO_U_MAX, h=1.0 / 64.0)
        want = rho_reference(self._rho_series, u)
        log_want = float(want.ln())
        if abs(rho_log(self._rho_table, u) - log_want) > REL_TOL:
            return f"rho_log({u}) = {rho_log(self._rho_table, u)!r}, reference {log_want!r}"
        if abs(log_want - LOG_UNDERFLOW) <= LOG_MARGIN:
            return None
        if log_want < LOG_UNDERFLOW:
            return None if printed == 0.0 else f"rho={printed!r}, reference below exp(-700) prints 0"
        return None if _close(printed, float(want)) else f"rho={printed!r}, reference {float(want)!r}"


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _independent(req, fields, refs):
    kind, argv = req["kind"], req["argv"]
    line = dict(fields[0]) if fields else {}
    if kind == "psi":
        want = refs.psi(float(_arg(argv, "--x")), float(_arg(argv, "--y")))
        if int(line["psi"]) != want:
            return f"psi={line['psi']}, reference {want}"
    elif kind == "vsum":
        want = v_via_abel(float(_arg(argv, "--x")), float(_arg(argv, "--y")), int(_arg(argv, "--a")))
        if not _close(float(line["v"]), want):
            return f"v={line['v']}, v_via_abel {want!r}"
    elif kind == "tsum_delta":
        if not _close(float(line["total"]), float(line["t"])):
            return f"Moebius total {line['total']} != t {line['t']}"
    elif kind == "rho":
        return refs.rho(float(_arg(argv, "--u")), float(line["rho"]))
    return None


def check(req, out, goldens, refs, tmp):
    """None when the request's output is right, else a one-line reason.

    ``out`` holds the request's exit code, stdout, stderr and, for scans,
    the CSV text it wrote; ``tmp`` is the scratch directory its argv named.
    """
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()}"
    fields = parse_fields(out["stdout"].replace(tmp, "{tmp}"))
    try:
        problem = _independent(req, fields, refs)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparseable output {out['stdout']!r}: {exc}"
    if problem or req["kind"] in NO_GOLDEN:
        return problem
    skip = INDEPENDENT_FIELDS.get(req["kind"], set())
    golden = goldens.get(req["key"])
    if golden is None:
        return "no golden recorded for this request"
    want = [[kv for kv in line if kv[0] not in skip] for line in parse_fields(golden["stdout"])]
    got = [[kv for kv in line if kv[0] not in skip] for line in fields]
    if got != want:
        return f"stdout {out['stdout']!r} differs from golden {golden['stdout']!r}"
    if "csv" in golden and out.get("csv") != golden["csv"]:
        return "scan CSV differs from golden"
    return None
