"""Desk-scale verification harness: convergence scans, discrepancy sums,
coprimality ratios, range flags, and error fitting, with CSV/JSON output.

The asymptotic statements under test only bite for astronomically large x,
so the harness records how far desk-scale data already agrees with the
leading terms; structural identities are asserted exactly, convergence
quality is measured and written out.

Every count over smooth values comes from ``census``.  The coprime ratios
read one quotient count for all their moduli, and sieve nothing; the
discrepancy sums hold the whole smooth set at once, in int32, for x up to
2^27, and read it in chunks of values.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .census import _coprime_counts, _residues, _smooth_values
from .dickman import RhoTable, build_rho_table, psi_estimate
from .errors import DomainError, SmoothlabError
from .formats import format_sig12
from .shifted import _E, ZETA2_INV, _shifted_totals, main_terms
from .sieve import (
    _check_cutoff, _check_log_ratio, _check_modulus, _check_pass, _check_quotient, _check_shift,
    _check_x, _check_y, _factor_at, _phi_of_pairs, _prime_lists, _to_float,
)

SCAN_CSV_HEADER = "x,y,u,a,psi,psi_rho,t,v,t_ratio,t_err,v_err,err_scale"
FT_CSV_HEADER = "d,ratio,dev,lemma_scale"

#: Geometric spacing of the z grid approximating max over z <= x.
Z_GRID_RATIO = 2.0 ** 0.25
Z_GRID_FLOOR = 16.0

#: Most entries of the (z slice, residue) count matrix that
#: ``granville_discrepancy`` holds at once; a modulus d takes
#: max(1, _COUNT_BLOCK // d) slices per block.
_COUNT_BLOCK = 1 << 14

#: Most smooth values whose residues and keys ``granville_discrepancy``
#: takes at once (``_class_counts``).
_VALUE_CHUNK = 1 << 16

_E_E = math.exp(math.e)


@dataclass(frozen=True)
class ScanConfig:
    """What a convergence scan should sweep.

    A given y is used at every grid point.  Without one, the theorem-range
    rule sets y = exp(C * sqrt(log x * logloglog x)) per grid point, the
    lower edge of the proven regime for the constant C (2 when not given).
    C is read only under that rule, so giving both y and C is an error.
    """

    x_grid: tuple
    a_list: tuple
    y: float | None = None
    C: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        if not self.x_grid:
            raise DomainError("x_grid must be non-empty")
        # inf is kept: it fails on its own row of the scan.
        if any(math.isnan(_to_float(x)) for x in self.x_grid):
            raise DomainError("x_grid must not hold nan")
        if any(u >= v for u, v in zip(self.x_grid, self.x_grid[1:])):
            raise DomainError("x_grid must be strictly increasing")
        if not self.a_list:
            raise DomainError("a_list must be non-empty")
        for a in self.a_list:
            _check_shift(a)
        if self.C is not None:
            if self.y is not None:
                raise DomainError("give y or C, not both: C sets y only when y is absent")
            if not self.C > 0:
                raise DomainError(f"C must be positive, got {self.C}")
        if self.output_path is not None:
            output_path(self.output_path, "ScanConfig.output_path")

    def y_for(self, x: float) -> float:
        if self.y is not None:
            return _to_float(self.y)
        if x <= _E_E:
            raise DomainError(f"theorem_range rule needs x > e^e, got {x}")
        return _theorem_bound(x, 2.0 if self.C is None else _to_float(self.C))


def _theorem_bound(x: float, C: float) -> float:
    """exp(C * sqrt(log x * logloglog x)), the theorem's lowest y; nan for x <= e^e."""
    if x <= _E_E:
        return math.nan
    return math.exp(C * math.sqrt(math.log(x) * math.log(math.log(math.log(x)))))


@dataclass(frozen=True)
class ScanRecord:
    """One scan point; numeric fields are nan when the point errored."""

    x: float
    y: float
    u: float
    a: int
    psi_exact: int
    psi_rho_est: float
    t_exact: float
    v_exact: float
    t_ratio: float
    t_err: float
    v_err: float
    err_scale: float
    error: str | None = None


def _scan_record(x: float, y: float, a: int, totals, table: RhoTable) -> ScanRecord:
    psi_value, t, v = totals
    est = psi_estimate(x, y, "rho", table).value
    terms = main_terms(x, y, psi_value)
    t_ratio = t / psi_value
    return ScanRecord(
        x=x,
        y=y,
        u=math.log(x) / math.log(y),
        a=a,
        psi_exact=psi_value,
        psi_rho_est=est,
        t_exact=t,
        v_exact=v,
        t_ratio=t_ratio,
        t_err=abs(t_ratio - ZETA2_INV),
        v_err=abs(v - terms.v_main) / x,
        err_scale=terms.err_scale,
    )


def _failed_record(x: float, a: int, exc: SmoothlabError) -> ScanRecord:
    return ScanRecord(
        x=x, y=math.nan, u=math.nan, a=a, psi_exact=0,
        psi_rho_est=math.nan, t_exact=math.nan, v_exact=math.nan,
        t_ratio=math.nan, t_err=math.nan, v_err=math.nan,
        err_scale=math.nan, error=str(exc),
    )


def convergence_scan(cfg: ScanConfig) -> list[ScanRecord]:
    """Run every (x, y(x), a) point of the config; never aborts mid-scan.

    Each point is admitted before any pass, by y(x), ``_check_pass``,
    ``_check_log_ratio`` (the x >= y >= 2 of its rho estimate) and, for
    a > 0, ``_check_quotient`` of its head psi(min(x, a), y), the smooth n
    that its pass skips.  A refused point is a row with nan numerics and
    the error, and no admitted pass can raise.  The points that share y
    and the list of shifts admitted at their x come from one pass up to the
    largest of their x for all those shifts (``_shifted_totals``), which
    gives each (x, a) the floats of a pass of that shift up to that x alone;
    under the theorem-range rule every x has its own y.  Rows come back
    sorted by (a, x) and, when the config names an output path, are also
    written as CSV; a path that cannot be opened for writing fails before
    the first point is computed.
    """
    if cfg.output_path:
        open(cfg.output_path, "a").close()
    # A shift listed twice is computed once and its rows repeated, so every
    # pass takes distinct shifts.
    by_shift, admitted = {}, {}
    for a in dict.fromkeys(map(int, cfg.a_list)):
        by_shift[a] = []
        for x in map(_to_float, cfg.x_grid):
            try:
                y = cfg.y_for(x)
                _check_pass(x, y, a)
                _check_log_ratio(x, y)
                if a > 0:
                    _check_quotient(math.floor(min(x, a)), y)
            except SmoothlabError as exc:
                by_shift[a].append(_failed_record(x, a, exc))
            else:
                admitted.setdefault((x, y), []).append(a)
    # The x of a group come in grid order: its first shift admitted them in turn.
    groups = {}
    for (x, y), shifts in admitted.items():
        groups.setdefault((y, tuple(shifts)), []).append(x)
    # x <= 2^52 and y >= 2 keep every u <= 52.
    u = [math.log(x) / math.log(y) for (y, _shifts), xs in groups.items() for x in xs]
    table = build_rho_table(u_max=math.ceil(max([2.0, *u])) + 1)
    for (y, shifts), xs in groups.items():
        for a, totals in zip(shifts, _shifted_totals(xs, y, list(shifts))):
            by_shift[a] += [_scan_record(x, y, a, t, table) for x, t in zip(xs, totals)]
    records = [r for a in map(int, cfg.a_list) for r in by_shift[a]]
    records.sort(key=lambda r: (r.a, r.x))
    if cfg.output_path:
        write_scan_csv(cfg.output_path, records)
    return records


# ---------------------------------------------------------------------------
# Discrepancy over arithmetic progressions


@dataclass(frozen=True)
class DiscrepancyRow:
    d: int
    deviation: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Per-modulus worst deviations of progression counts from phi(d)-equal shares.

    Row d holds max over probed z and residues a coprime to d of
    |#{smooth n <= z, n = a mod d} - #{smooth n <= z coprime to d} / phi(d)|.
    """

    x: float
    y: float
    delta: float
    z_mode: str
    z_values: tuple
    rows: tuple
    total: float
    total_over_psi: float
    notes: tuple


def granville_discrepancy(
    x: float, y: float, delta: float, z_mode: str = "fixed_x"
) -> DiscrepancyReport:
    """Accumulate worst progression-vs-average deviations for all d <= delta.

    z_mode "fixed_x" probes only z = x; "max_over_grid" approximates the
    supremum over z <= x with a geometric grid of ratio 2^(1/4) (the exact
    supremum over real z is unattainable; the grid decision is recorded in
    the report notes).

    With more than one slice, each smooth value is labelled once with its
    z slice, the grid interval it falls in, in one byte.  For each d, the
    ``bincount`` of slice * d + residue over a block of slices, summed over
    chunks of ``_VALUE_CHUNK`` values (``_class_counts``), gives a (slice,
    residue) count matrix, and one cumulative sum down the grid turns its
    rows into the counts of the n <= z.  The worst |count - share| of the
    block then comes from one vectorized abs/max, with each share the int
    sum of the coprime classes divided by phi(d).  A block holds at most
    ``_COUNT_BLOCK`` counts.  The smooth values are one int32 array
    (``census._smooth_values``), so an x past 2^27 is a CapacityError.  So
    memory is 4 bytes per smooth n, plus the label on a grid, plus one
    chunk and one block, for any delta: 552 MB of max RSS at x = 2^27 and
    y = 1e9 (673 MB on the grid), against 3,106 MB with whole-set keys.
    """
    top, y, delta = _check_x(x), _check_y(y), _check_cutoff(delta)
    x = _to_float(x)
    notes = []
    if delta > x:
        notes.append(f"delta {delta:g} clamped to x {x:g}")
        delta = x
    if z_mode == "fixed_x":
        z_values = [x]
        notes.append("deviations probed at z = x only")
    elif z_mode == "max_over_grid":
        z_values = [x]
        while z_values[-1] / Z_GRID_RATIO >= Z_GRID_FLOOR:
            z_values.append(z_values[-1] / Z_GRID_RATIO)
        z_values.reverse()
        notes.append(
            f"max over z <= x approximated on a geometric grid of ratio 2^(1/4) "
            f"with {len(z_values)} points down to {z_values[0]:.6g}"
        )
    else:
        raise DomainError(f"unknown z_mode {z_mode!r}")

    values = _smooth_values(top, y)
    # values[ends[i - 1]:ends[i]] are the smooth n in (z_{i-1}, z_i] for the
    # increasing grid; with more than one slice, labels holds each value's i.
    cuts = np.array([math.floor(z) for z in z_values], dtype=values.dtype)
    ends = np.searchsorted(values, cuts, side="right")
    labels = None
    if ends.size > 1:
        label = np.arange(ends.size, dtype=np.min_scalar_type(ends.size - 1))
        labels = np.repeat(label, np.diff(ends, prepend=0))
    rows = []
    for d in range(1, math.floor(delta) + 1):
        coprime = np.flatnonzero(np.gcd(np.arange(d), d) == 1)
        step = max(1, _COUNT_BLOCK // d)
        below = np.zeros(d, dtype=np.int64)  # the counts up to the block's first slice
        worst = 0.0
        for first in range(0, ends.size, step):
            last = min(first + step, ends.size)
            start, stop = ends[first - 1] if first else 0, ends[last - 1]
            counts = _class_counts(values, labels, start, stop, first, d, (last - first) * d)
            counts = counts.reshape(-1, d)
            # A running sum down the grid: row i counts the n <= z_{first+i}.
            np.cumsum(counts, axis=0, out=counts)
            counts += below
            below = counts[-1]
            in_class = np.take(counts, coprime, axis=1)
            shares = in_class.sum(axis=1) / coprime.size  # int / int, coprime.size = phi(d)
            worst = max(worst, float(np.abs(in_class - shares[:, None]).max()))
        rows.append(DiscrepancyRow(d=d, deviation=worst))
    total = math.fsum(r.deviation for r in rows)
    psi_value = values.size
    return DiscrepancyReport(
        x=x,
        y=y,
        delta=delta,
        z_mode=z_mode,
        z_values=tuple(z_values),
        rows=tuple(rows),
        total=total,
        total_over_psi=total / psi_value,
        notes=tuple(notes),
    )


def _class_counts(values, labels, start, stop, first, d, size):
    """The int64 bincount of (label - first) * d + (v mod d) over values[start:stop], by chunks.

    labels None puts every value in slice first.
    """
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(start, stop, _VALUE_CHUNK):
        hi = min(lo + _VALUE_CHUNK, stop)
        keys = _residues(values[lo:hi], d)
        if labels is not None:
            offsets = labels[lo:hi].astype(np.intp)
            offsets -= first
            offsets *= d
            keys = np.add(offsets, keys, out=offsets)
        counts += np.bincount(keys, minlength=size)
    return counts


# ---------------------------------------------------------------------------
# Coprime-count ratios


@dataclass(frozen=True)
class FtRatioRow:
    """How closely smooth numbers coprime to d fill their phi(d)/d share."""

    d: int
    ratio: float
    dev: float
    lemma_scale: float


def ft_ratio_scan(x: float, y: float, d_list) -> list[FtRatioRow]:
    """ratio = psi_coprime * d / (phi(d) * psi) for each modulus, sorted by d.

    One ``sieve._factor_at`` call gives phi(d) and the primes of every d, of
    which only those up to min(y, x) matter for coprimality with a smooth n;
    ``census._coprime_counts`` reads Psi and every psi_coprime from one
    quotient count, so nothing is sieved.
    """
    top, y = _check_x(x), _check_y(y)
    x = _to_float(x)
    ds = sorted(_check_modulus(d, totient=True) for d in d_list)
    if not ds:
        return []
    values = np.array(ds, dtype=np.int64)
    idx, primes = _factor_at(values)
    phis = _phi_of_pairs(values, idx, primes).tolist()
    psi_value, counts = _coprime_counts(top, y, _prime_lists(idx, primes, len(ds), min(y, top)))
    rows = []
    for d, phi_d, coprime in zip(ds, phis, counts):
        ratio = coprime * d / (phi_d * psi_value)
        if d * y > _E and x > _E and y > 1:
            scale = math.log(math.log(d * y)) * math.log(math.log(x)) / math.log(y)
        else:
            scale = math.nan
        rows.append(FtRatioRow(d=d, ratio=ratio, dev=abs(ratio - 1.0), lemma_scale=scale))
    return rows


# ---------------------------------------------------------------------------
# Range flags


@dataclass(frozen=True)
class RangeFlags:
    """Whether (x, y) sits inside the proven ranges, with the thresholds.

    Flags are None (and thresholds nan) where an iterated logarithm is
    undefined, rather than silently false.
    """

    x: float
    y: float
    C: float
    epsilon: float
    u: float
    theorem_threshold: float
    in_theorem_range: bool | None
    lemma1_lower: float
    in_lemma1_range: bool | None

    @property
    def lemma5_threshold(self) -> float:
        return (math.log(self.y) / math.log(self.u + 1.0)) ** (1.0 - self.epsilon)

    def in_lemma5_d_bound(self, d: int) -> bool:
        return math.log(math.log(d + 2)) <= self.lemma5_threshold


def range_check(x: float, y: float, C: float = 2.0, epsilon: float = 0.5) -> RangeFlags:
    """Compute the admissible-range flags for a scan point."""
    x, y = _check_log_ratio(x, y)
    C, epsilon = _to_float(C), _to_float(epsilon)
    if not C > 0:
        raise DomainError(f"C must be positive, got {C}")
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon}")
    u = math.log(x) / math.log(y)
    thr = _theorem_bound(x, C)
    in_thm = None if math.isnan(thr) else y >= thr
    if x > _E:
        lemma1_lower = math.exp(math.log(math.log(x)) ** (5.0 / 3.0 + epsilon))
        in_l1 = lemma1_lower <= y <= x
    else:
        lemma1_lower, in_l1 = math.nan, None
    return RangeFlags(
        x=x,
        y=y,
        C=C,
        epsilon=epsilon,
        u=u,
        theorem_threshold=thr,
        in_theorem_range=in_thm,
        lemma1_lower=lemma1_lower,
        in_lemma1_range=in_l1,
    )


# ---------------------------------------------------------------------------
# Error-term fitting


@dataclass(frozen=True)
class ErrorFit:
    c: float
    residual_norm: float
    n_used: int


def error_fit(records) -> ErrorFit:
    """Least-squares fit through the origin of t_err against err_scale."""
    pairs = [
        (r.t_err, r.err_scale)
        for r in records
        if math.isfinite(r.err_scale) and math.isfinite(r.t_err)
    ]
    if len(pairs) < 3:
        raise DomainError(f"need >= 3 records with defined err_scale, got {len(pairs)}")
    denom = math.fsum(s * s for _e, s in pairs)
    if denom == 0.0:
        raise DomainError("degenerate fit: all err_scale values are 0")
    c = math.fsum(e * s for e, s in pairs) / denom
    residual = math.sqrt(math.fsum((e - c * s) ** 2 for e, s in pairs))
    return ErrorFit(c=c, residual_norm=residual, n_used=len(pairs))


# ---------------------------------------------------------------------------
# CSV / JSON / config plumbing


def record_cells(r) -> list[str]:
    """``format_sig12`` of each field of a scan or ratio record, in CSV column order.

    The fields run in the order of the header's columns; a scan record's
    ``error`` is not a column.
    """
    return [format_sig12(getattr(r, f.name)) for f in fields(r) if f.name != "error"]


def scan_record_line(r: ScanRecord) -> str:
    return ",".join(record_cells(r))


def _write_csv(path, header: str, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for r in records:
            fh.write(",".join(record_cells(r)) + "\n")


def write_scan_csv(path, records) -> None:
    _write_csv(path, SCAN_CSV_HEADER, records)


def _read_csv(path, header: str, what: str, record):
    """The non-blank data rows of a CSV file with the given header, as ``record``s.

    Column i goes through ``parse_number`` with the type of the record's
    i-th field; a scan record's ``error`` is not a column.  A wrong header,
    a row with the wrong number of cells or a malformed cell is a
    DomainError naming the file line (and the column).
    """
    columns = header.split(",")
    kinds = [f.type for f in fields(record) if f.name != "error"]
    rows = []
    with open(path, newline="") as fh:
        found = fh.readline().strip()
        if found != header:
            raise DomainError(f"unexpected {what} CSV header: {found!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise DomainError(
                    f"malformed {what} CSV line {lineno}: {len(cells)} cells, "
                    f"expected {len(columns)}"
                )
            rows.append(record(*(
                parse_number(cell, kind, f"column {col!r} of {what} CSV line {lineno}")
                for col, kind, cell in zip(columns, kinds, cells)
            )))
    return rows


def read_scan_csv(path) -> list[ScanRecord]:
    return _read_csv(path, SCAN_CSV_HEADER, "scan", ScanRecord)


def write_ft_csv(path, rows) -> None:
    _write_csv(path, FT_CSV_HEADER, rows)


def read_ft_csv(path) -> list[FtRatioRow]:
    return _read_csv(path, FT_CSV_HEADER, "ratio", FtRatioRow)


def write_json_report(path, config: dict, rows, goldens: dict) -> None:
    """One experiment = one JSON object with config, rows, goldens keys."""
    payload = {"config": config, "rows": rows, "goldens": goldens}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CONFIG_KEYS = {
    "x_grid",
    "y",
    "a_list",
    "C",
    "out",
}


def parse_number(text: str, kind, where: str):
    """``kind(text)`` for kind int or float; a malformed number is a DomainError naming where."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"malformed number {text.strip()!r} in {where}") from None


def output_path(text: str, where: str = "--out") -> str:
    """text, a path to write to; an empty one would write nothing, so it is a DomainError.

    DomainError is a ValueError: as an argparse ``type`` this makes a usage error.
    """
    if not text:
        raise DomainError(f"empty output path in {where}")
    return text


def parse_config(text: str) -> ScanConfig:
    """Parse the flat key = value scan-config format.

    Recognized keys: x_grid, y, a_list, C, out, each at most once.  Lists
    are comma separated; blank lines and #-comments are ignored.
    """
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not key = value: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r} on line {lineno}")
        if key in lines:
            raise DomainError(f"config key {key!r} on line {lineno} repeats line {lines[key]}")
        values[key], lines[key] = val, lineno
    if "x_grid" not in values:
        raise DomainError("config needs an x_grid")
    if "a_list" not in values:
        raise DomainError("config needs an a_list")

    def number(key, text, kind=float):
        return parse_number(text, kind, f"config key {key!r} on line {lines[key]}")

    kwargs = {
        "x_grid": tuple(number("x_grid", v) for v in values["x_grid"].split(",")),
        "a_list": tuple(number("a_list", v, int) for v in values["a_list"].split(",")),
    }
    if "y" in values:
        kwargs["y"] = number("y", values["y"])
    if "C" in values:
        if "y" in values:
            raise DomainError(
                f"config key 'C' on line {lines['C']} is read only when y is absent, "
                f"but y is given on line {lines['y']}"
            )
        kwargs["C"] = number("C", values["C"])
    if "out" in values:
        where = f"config key 'out' on line {lines['out']}"
        kwargs["output_path"] = output_path(values["out"], where)
    return ScanConfig(**kwargs)


def load_config(path) -> ScanConfig:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"config {path} is not text: {exc}") from None
    return parse_config(text)
