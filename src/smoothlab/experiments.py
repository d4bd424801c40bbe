"""Desk-scale verification harness: convergence scans, discrepancy sums,
coprimality ratios, range flags, and error fitting, with CSV/JSON output.

The asymptotic statements under test only bite for astronomically large x,
so the harness records how far desk-scale data already agrees with the
leading terms; structural identities are asserted exactly, convergence
quality is measured and written out.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .census import SmoothRange, _count_coprime, _prime_divisors
from .dickman import MAX_UNITS, RhoTable, build_rho_table, psi_estimate
from .errors import DomainError, SmoothlabError
from .formats import format_sig12
from .shifted import _E, ZETA2_INV, _shifted_totals, main_terms
from .sieve import MAX_SIEVE_BOUND, _check_int, _phi_at

SCAN_CSV_HEADER = "x,y,u,a,psi,psi_rho,t,v,t_ratio,t_err,v_err,err_scale"
FT_CSV_HEADER = "d,ratio,dev,lemma_scale"

#: Columns of the scan and ratio CSVs that hold integers; the rest are floats.
_INT_COLUMNS = ("a", "psi", "d")

#: Geometric spacing of the z grid approximating max over z <= x.
Z_GRID_RATIO = 2.0 ** 0.25
Z_GRID_FLOOR = 16.0

_E_E = math.exp(math.e)


def thread_count() -> int:
    """Worker count from SMOOTHLAB_THREADS (0 = auto, unset = serial)."""
    raw = os.environ.get("SMOOTHLAB_THREADS", "1").strip() or "1"
    n = parse_number(raw, int, "SMOOTHLAB_THREADS")
    if n == 0:
        return os.cpu_count() or 1
    if n < 0:
        raise DomainError(f"SMOOTHLAB_THREADS must be >= 0, got {n}")
    return n


@dataclass(frozen=True)
class ScanConfig:
    """What a convergence scan should sweep.

    y_rule "fixed" uses the configured y everywhere; "theorem_range" sets
    y = exp(C * sqrt(log x * logloglog x)) per grid point, the lower edge of
    the proven regime for the configured constant C.
    """

    x_grid: tuple
    a_list: tuple
    y: float | None = None
    y_rule: str = "fixed"
    C: float = 2.0
    output_path: str | None = None

    def __post_init__(self):
        if not self.x_grid:
            raise DomainError("x_grid must be non-empty")
        # inf is kept: it fails on its own row of the scan.
        if any(math.isnan(x) for x in self.x_grid):
            raise DomainError("x_grid must not hold nan")
        if list(self.x_grid) != sorted(self.x_grid) or len(set(self.x_grid)) != len(
            self.x_grid
        ):
            raise DomainError("x_grid must be strictly increasing")
        if not self.a_list:
            raise DomainError("a_list must be non-empty")
        if any(_check_int(a, "shift") == 0 for a in self.a_list):
            raise DomainError("shifts in a_list must be nonzero")
        if not self.C > 0:
            raise DomainError(f"C must be positive, got {self.C}")
        if self.y_rule == "fixed" and self.y is None:
            raise DomainError("fixed y_rule needs a y value")
        if self.y_rule not in ("fixed", "theorem_range"):
            raise DomainError(f"unknown y_rule {self.y_rule!r}")

    def y_for(self, x: float) -> float:
        if self.y_rule == "fixed":
            return float(self.y)
        if x <= _E_E:
            raise DomainError(f"theorem_range rule needs x > e^e, got {x}")
        return math.exp(self.C * math.sqrt(math.log(x) * math.log(math.log(math.log(x)))))


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


def _scan_point(x: float, y: float, a: int, table: RhoTable) -> ScanRecord:
    u = math.log(x) / math.log(y)
    psi_value, t, v = _shifted_totals(x, y, a)
    est = psi_estimate(x, y, "rho", table).value
    terms = main_terms(x, y, psi_value)
    t_ratio = t / psi_value
    return ScanRecord(
        x=float(x),
        y=float(y),
        u=u,
        a=int(a),
        psi_exact=psi_value,
        psi_rho_est=est,
        t_exact=t,
        v_exact=v,
        t_ratio=t_ratio,
        t_err=abs(t_ratio - ZETA2_INV),
        v_err=abs(v - terms.v_main) / x,
        err_scale=terms.err_scale,
    )


def convergence_scan(cfg: ScanConfig, table: RhoTable | None = None) -> list[ScanRecord]:
    """Run every (x, y(x), a) point of the config; never aborts mid-scan.

    Failed points become records with nan numerics and the error message
    attached.  Rows come back sorted by (a, x) and, when the config names an
    output path, are also written as CSV; a path that cannot be opened for
    writing fails before the first point is computed.
    """
    workers = thread_count()
    if cfg.output_path:
        open(cfg.output_path, "a").close()
    points = [(float(x), int(a)) for a in cfg.a_list for x in cfg.x_grid]
    if table is None:
        u_hi = 2.0
        for x, _a in points:
            try:
                u_hi = max(u_hi, math.log(x) / math.log(cfg.y_for(x)))
            except SmoothlabError:
                continue
        # a point past the table limit (or at x = inf) fails on its own row
        table = build_rho_table(u_max=math.ceil(min(u_hi, MAX_UNITS - 1)) + 1)

    def run_one(point):
        x, a = point
        try:
            return _scan_point(x, cfg.y_for(x), a, table)
        except SmoothlabError as exc:
            return ScanRecord(
                x=x, y=math.nan, u=math.nan, a=a, psi_exact=0,
                psi_rho_est=math.nan, t_exact=math.nan, v_exact=math.nan,
                t_ratio=math.nan, t_err=math.nan, v_err=math.nan,
                err_scale=math.nan, error=str(exc),
            )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_one, points))
    else:
        records = [run_one(p) for p in points]
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

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "delta": self.delta,
            "z_mode": self.z_mode,
            "z_values": list(self.z_values),
            "rows": [[r.d, r.deviation] for r in self.rows],
            "total": self.total,
            "total_over_psi": self.total_over_psi,
            "notes": list(self.notes),
        }


def granville_discrepancy(
    x: float, y: float, delta: float, z_mode: str = "fixed_x"
) -> DiscrepancyReport:
    """Accumulate worst progression-vs-average deviations for all d <= delta.

    z_mode "fixed_x" probes only z = x; "max_over_grid" approximates the
    supremum over z <= x with a geometric grid of ratio 2^(1/4) (the exact
    supremum over real z is unattainable; the grid decision is recorded in
    the report notes).
    """
    x, y = float(x), float(y)
    if not 1 <= x < math.inf:
        raise DomainError(f"needs a finite x >= 1, got {x}")
    delta = float(delta)
    if not delta >= 1:
        raise DomainError(f"delta must be >= 1, got {delta}")
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

    top = math.floor(x)
    values = SmoothRange(1, top, y).values
    # values[:cut] are the smooth n <= z, for each z of the (increasing) grid
    cuts = np.searchsorted(values, [math.floor(z) for z in z_values], side="right")
    rows = []
    for d in range(1, math.floor(delta) + 1):
        residues = values % d
        coprime = np.gcd(np.arange(d), d) == 1
        counts = np.zeros(d, dtype=np.int64)
        worst = 0.0
        for part in np.split(residues, cuts)[:-1]:
            counts += np.bincount(part, minlength=d)
            in_class = counts[coprime]
            coprime_share = int(in_class.sum()) / in_class.size  # size is phi(d)
            worst = max(worst, float(np.abs(in_class - coprime_share).max()))
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
    """ratio = psi_coprime * d / (phi(d) * psi) for each modulus, sorted by d."""
    x, y = float(x), float(y)
    if not 1 <= x < math.inf:
        raise DomainError(f"needs a finite x >= 1, got {x}")
    ds = sorted(_check_int(d, "modulus") for d in d_list)
    if not ds:
        return []
    if not 1 <= ds[0] <= ds[-1] <= MAX_SIEVE_BOUND:
        raise DomainError(f"moduli must lie in [1, 2^52], got {ds[0]}..{ds[-1]}")
    top = math.floor(x)
    values = SmoothRange(1, top, y).values
    psi_value = values.size
    rows = []
    for d, phi_d in zip(ds, _phi_at(np.array(ds)).tolist()):
        coprime = _count_coprime(values, _prime_divisors(d, min(y, top)))
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
    x, y = float(x), float(y)
    if not x >= y >= 2:
        raise DomainError(f"needs x >= y >= 2, got x={x}, y={y}")
    if not C > 0:
        raise DomainError(f"C must be positive, got {C}")
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon}")
    u = math.log(x) / math.log(y)
    if x > _E_E:
        thr = math.exp(C * math.sqrt(math.log(x) * math.log(math.log(math.log(x)))))
        in_thm = y >= thr
    else:
        thr, in_thm = math.nan, None
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


def write_scan_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SCAN_CSV_HEADER + "\n")
        for r in records:
            fh.write(scan_record_line(r) + "\n")


def scan_record_line(r: ScanRecord) -> str:
    cells = [
        format_sig12(r.x),
        format_sig12(r.y),
        format_sig12(r.u),
        str(r.a),
        str(r.psi_exact),
        format_sig12(r.psi_rho_est),
        format_sig12(r.t_exact),
        format_sig12(r.v_exact),
        format_sig12(r.t_ratio),
        format_sig12(r.t_err),
        format_sig12(r.v_err),
        format_sig12(r.err_scale),
    ]
    return ",".join(cells)


def _read_csv(path, header: str, what: str) -> list[list]:
    """The non-blank data rows of a CSV file with the given header, as numbers.

    Each cell goes through ``parse_number``, as int in the integer columns
    and float elsewhere.  A wrong header, a row with the wrong number of
    cells or a malformed cell is a DomainError naming the file line (and the
    column).
    """
    columns = header.split(",")
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
            rows.append([
                parse_number(
                    cell, int if col in _INT_COLUMNS else float,
                    f"column {col!r} of {what} CSV line {lineno}",
                )
                for col, cell in zip(columns, cells)
            ])
    return rows


def read_scan_csv(path) -> list[ScanRecord]:
    return [ScanRecord(*row) for row in _read_csv(path, SCAN_CSV_HEADER, "scan")]


def write_ft_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(FT_CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    [
                        str(r.d),
                        format_sig12(r.ratio),
                        format_sig12(r.dev),
                        format_sig12(r.lemma_scale),
                    ]
                )
                + "\n"
            )


def read_ft_csv(path) -> list[FtRatioRow]:
    return [FtRatioRow(*row) for row in _read_csv(path, FT_CSV_HEADER, "ratio")]


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


def parse_config(text: str) -> ScanConfig:
    """Parse the flat key = value scan-config format.

    Recognized keys: x_grid, y, a_list, C, out.  Lists are comma
    separated; blank lines and #-comments are ignored.
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
        kwargs["y_rule"] = "fixed"
    else:
        kwargs["y_rule"] = "theorem_range"
    if "C" in values:
        kwargs["C"] = number("C", values["C"])
    if "out" in values:
        kwargs["output_path"] = values["out"]
    return ScanConfig(**kwargs)


def load_config(path) -> ScanConfig:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"config {path} is not text: {exc}") from None
    return parse_config(text)
