"""Seeded request lists for the benchmark workloads.

Each workload is a fixed pool of distinct CLI commands, split into strata of
similar cost (one command kind at one size level).  A round holds one
member of every stratum, in an order fixed per workload; the seed chooses,
for every stratum, the order in which its members are used.  So any whole
number of rounds samples the workload's cost mix evenly and in the same
pattern (which sets, for example, what the library's caches hold when the
largest requests run) whatever the seed, and the goldens recorded for the
pool cover every request a seed can produce.  No request appears twice in
one run.

Requests are plain dicts:

    key     stable identifier, the argv joined by spaces (the scan config
            text for scans); goldens are keyed by it
    kind    psi, tsum, vsum, scan, tsum_delta, disc_fixed, disc_grid,
            ftratio or rho
    argv    CLI arguments; the token {tmp} stands for the run's scratch
            directory
    config  scan config text to write to {tmp}/<name>, or absent
"""

import math
import os
import random

#: Workload names in the order the benchmark documents them.
WORKLOADS = ("sieve_sums", "moduli", "rho_tables")

#: Members of a stratum are drawn from this share of its slice around the
#: slice's centre, so that a stratum costs about the same whatever the seed.
JITTER = 0.2

# x levels: slices of a log-uniform range.  With 8 levels over 3e4..6.6e6,
# the members of the top level (x about 4.4e6 to 5.1e6) lie above the
# 2^22-entry segment size and need two segments, and those of every other
# level need one.  A round then takes about 13 s on the 2-core reference
# box, so a 20 s run does two whole rounds.
SIEVE_LEVELS = 8
SIEVE_X = (3e4, 6.6e6)
SCAN_X = (3e4, 1e6)
SIEVE_Y = ("30", "1000", "100000")
SHIFTS = (1, -1, 2, -2, 6)
SIEVE_MEMBERS = 8

DISC_X = (2e4, 1.5e5)
DISC_DELTA = (20, 150)
DISC_LEVELS = 3
MOBIUS_X = (1e4, 2e5)
FT_X = (1e5, 2e6)
MODULI_LEVELS = 12
MODULI_Y = ("50", "100", "1000")
FT_D_LIST = "2,3,5,6,7,10,30,210,2310"
MODULI_MEMBERS = 12

RHO_U_MAX = 1000
RHO_SLICE_WIDTH = 10
RHO_STEPS = ("0.015625", "0.00390625", "0.001953125")  # 1/64, 1/256, 1/512


def _level_value(rng, lo, hi, level, levels):
    """A draw near the centre of slice ``level`` of ``levels`` log-even slices of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / levels
    return math.exp(a + w * (level + 0.5 + JITTER * (rng.random() - 0.5)))


def _request(kind, argv, config=None):
    req = {"key": " ".join(argv), "kind": kind, "argv": argv}
    if config is not None:
        req["config"] = config
        req["key"] = kind + " " + config.replace("\n", "; ").strip("; ")
    return req


def _cycle(values, i):
    return values[i % len(values)]


def _sieve_sums_pool():
    rng = random.Random("sieve_sums-pool")
    strata = []
    # y sets how many terms T and V gather, and the sign of a decides which
    # sieve windows a request shares with psi and with the library's window
    # cache, so both are fixed per stratum: a stratum costs about the same
    # whatever members a seed draws.
    for k, kind in enumerate(("psi", "tsum", "vsum")):
        for level in range(SIEVE_LEVELS):
            y = _cycle(SIEVE_Y, level + k)
            a = _cycle(SHIFTS, level + 2 * k)
            members = []
            for _ in range(SIEVE_MEMBERS):
                x = str(round(_level_value(rng, *SIEVE_X, level, SIEVE_LEVELS)))
                argv = [kind, "--x", x, "--y", y]
                if kind != "psi":
                    argv += ["--a", str(a)]
                members.append(_request(kind, argv))
            strata.append(members)
    for level in range(SIEVE_LEVELS):
        n_x = 2 + level % 2
        shifts = [_cycle(SHIFTS, level)] + ([_cycle(SHIFTS, level + 2)] if level % 3 else [])
        members = []
        for i in range(SIEVE_MEMBERS):
            top = _level_value(rng, *SCAN_X, level, SIEVE_LEVELS)
            xs = sorted(round(top / 2.5**j) for j in range(n_x))
            # y <= every x keeps each scan point inside psi_estimate's domain.
            y = _cycle([v for v in SIEVE_Y if float(v) <= xs[0]], level)
            config = (
                f"x_grid = {','.join(str(x) for x in xs)}\n"
                f"y = {y}\n"
                f"a_list = {','.join(str(a) for a in shifts)}\n"
            )
            name = f"scan-{level}-{i}"
            argv = ["scan", "--config", f"{{tmp}}/{name}.cfg", "--out", f"{{tmp}}/{name}.csv"]
            req = _request("scan", argv, config)
            req["name"] = name
            members.append(req)
        strata.append(members)
    return strata


def _moduli_pool():
    rng = random.Random("moduli-pool")
    strata = []
    for mode in ("fixed_x", "max_over_grid"):
        kind = "disc_fixed" if mode == "fixed_x" else "disc_grid"
        # Large x pairs with small delta: the cost, about x * delta, is
        # alike across strata and the pairs still span both ranges.
        for level in range(DISC_LEVELS):
            y = _cycle(MODULI_Y, level)
            members = []
            for _ in range(MODULI_MEMBERS):
                x = round(_level_value(rng, *DISC_X, level, DISC_LEVELS))
                delta = round(_level_value(rng, *DISC_DELTA, DISC_LEVELS - 1 - level, DISC_LEVELS))
                argv = ["discrepancy", "--x", str(x), "--y", y, "--delta", str(delta), "--z-mode", mode]
                members.append(_request(kind, argv))
            strata.append(members)
    for level in range(MODULI_LEVELS):
        y, a = _cycle(SIEVE_Y, level), _cycle(SHIFTS, level)
        members = []
        for _ in range(MODULI_MEMBERS):
            x = round(_level_value(rng, *MOBIUS_X, level, MODULI_LEVELS))
            delta = round(math.exp(rng.uniform(math.log(10), math.log(1000))))
            argv = ["tsum", "--x", str(x), "--y", y, "--a", str(a), "--delta", str(delta)]
            members.append(_request("tsum_delta", argv))
        strata.append(members)
    for level in range(MODULI_LEVELS):
        y = _cycle(MODULI_Y, level)
        members = []
        for _ in range(MODULI_MEMBERS):
            x = round(_level_value(rng, *FT_X, level, MODULI_LEVELS))
            argv = ["ftratio", "--x", str(x), "--y", y, "--d-list", FT_D_LIST]
            members.append(_request("ftratio", argv))
        strata.append(members)
    return strata


def _rho_pool():
    """Strata of rho requests: ceil(u) in a slice of RHO_SLICE_WIDTH integers.

    Every request has its own ceil(u), so no two commands in a run share a
    rho table, as for a CLI user whose every command is a fresh process.
    The step h is fixed per stratum and cycles over RHO_STEPS.
    """
    rng = random.Random("rho_tables-pool")
    ks = range(2, RHO_U_MAX + 1)
    strata = []
    for s, first in enumerate(range(0, len(ks), RHO_SLICE_WIDTH)):
        h = _cycle(RHO_STEPS, s)
        members = []
        for k in ks[first : first + RHO_SLICE_WIDTH]:
            u = f"{k - rng.uniform(0.0, 0.999):.4f}"
            members.append(_request("rho", ["rho", "--u", u, "--h", h]))
        strata.append(members)
    return strata


def write_config(req, tmp):
    """Write a scan request's config file into the scratch directory."""
    if "config" in req:
        with open(os.path.join(tmp, req["name"] + ".cfg"), "w") as fh:
            fh.write(req["config"])


def pool(workload):
    """Every stratum of the workload's fixed pool."""
    if workload == "sieve_sums":
        return _sieve_sums_pool()
    if workload == "moduli":
        return _moduli_pool()
    if workload == "rho_tables":
        return _rho_pool()
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload, seed):
    """The run's request list for ``seed``, as a list of rounds.

    Round r takes the r-th member of every stratum after a seeded shuffle;
    there are as many rounds as the smallest stratum has members.
    """
    strata = pool(workload)
    random.Random(f"{workload}-order").shuffle(strata)
    rng = random.Random(f"{workload}:{seed}")
    for members in strata:
        rng.shuffle(members)
    return [[members[r] for members in strata] for r in range(min(len(m) for m in strata))]
