"""Command-line front end.

One line of key=value output per query, 12 significant digits, exit code 0
on success, 1 on domain/resource errors, 2 on usage errors, 130 when
interrupted (SIGINT).
"""

import argparse
import dataclasses
import sys

from . import experiments
from .census import psi
from .dickman import rho_at
from .errors import DomainError, SmoothlabError
from .formats import format_sig12
from .shifted import _head_psi, _shifted_totals, _v_parts, main_terms, t_via_mobius
from .sieve import _check_split

_EPILOG = "Numeric output carries 12 significant digits."


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothlab",
        description="Smooth-number counts, Dickman rho, and shifted-totient sums.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    xy = argparse.ArgumentParser(add_help=False)
    xy.add_argument("--x", type=float, required=True, help="upper bound x")
    xy.add_argument("--y", type=float, required=True, help="smoothness bound y")
    shift = argparse.ArgumentParser(add_help=False)
    shift.add_argument("--a", type=int, required=True, help="nonzero shift a")

    sub.add_parser("psi", parents=[xy], help="exact count of y-smooth integers up to x")

    p = sub.add_parser("rho", help="Dickman rho at a point")
    p.add_argument("--u", type=float, required=True, help="evaluation point u")
    p.add_argument(
        "--h",
        type=float,
        default=1.0 / 256.0,
        help="knot step of the table's lazy grid (default 1/256); the printed rho does not "
        "depend on it",
    )

    p = sub.add_parser("tsum", parents=[xy, shift], help="shifted-totient sum T(x, y) and T/psi")
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="also report the Moebius split at this cutoff",
    )

    sub.add_parser("vsum", parents=[xy, shift], help="normalized shifted-totient average V(x, y)")

    p = sub.add_parser("scan", help="convergence scan driven by a config file")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", type=experiments.output_path, help="override the config output path")

    p = sub.add_parser("discrepancy", parents=[xy], help="progression discrepancy report")
    p.add_argument("--delta", type=float, required=True, help="modulus cutoff")
    p.add_argument(
        "--z-mode",
        choices=("fixed_x", "max_over_grid"),
        default="fixed_x",
        help="probe z = x only, or a geometric z grid",
    )
    p.add_argument("--out", type=experiments.output_path, help="write the JSON report here")

    p = sub.add_parser("ftratio", parents=[xy], help="coprime-count ratios for chosen moduli")
    p.add_argument("--d-list", required=True, help="comma-separated moduli")
    p.add_argument("--out", type=experiments.output_path, help="write rows as CSV here")

    return parser


def _emit(pairs) -> None:
    print(" ".join(f"{k}={v}" for k, v in pairs))


def _run_psi(args) -> int:
    _emit([("psi", psi(args.x, args.y))])
    return 0


def _run_rho(args) -> int:
    _emit([("rho", format_sig12(rho_at(args.u, args.h)))])
    return 0


def _run_tsum(args) -> int:
    split = {}
    if args.delta is None:
        [[(psi_value, t, _v)]] = _shifted_totals([args.x], args.y, [args.a])
    else:
        _check_split(args.x, args.y, args.a, args.delta)  # then the head: both refuse before the pass
        head = _head_psi(args.x, args.y, args.a)
        mobius = t_via_mobius(args.x, args.y, args.a, args.delta)
        psi_value, t = head + mobius.count, mobius.t
        split = {key: getattr(mobius, key) for key in ("sigma1", "sigma2", "total", "delta_used")}
    _emit((key, format_sig12(value)) for key, value in {"t": t, "ratio": t / psi_value, **split}.items())
    return 0


def _run_vsum(args) -> int:
    v, psi_value = _v_parts(args.x, args.y, args.a)
    terms = main_terms(args.x, args.y, psi_value)
    _emit([("v", format_sig12(v)), ("v_main", format_sig12(terms.v_main))])
    return 0


def _run_scan(args) -> int:
    cfg = experiments.load_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_path=args.out)
    records = experiments.convergence_scan(cfg)
    failed = sum(1 for r in records if r.error is not None)
    pairs = [("rows", len(records)), ("failed", failed)]
    if cfg.output_path:
        pairs.append(("out", cfg.output_path))
    _emit(pairs)
    return 0


def _run_discrepancy(args) -> int:
    report = experiments.granville_discrepancy(args.x, args.y, args.delta, args.z_mode)
    if args.out:
        experiments.write_json_report(
            args.out,
            config={
                "x": report.x,
                "y": report.y,
                "delta": report.delta,
                "z_mode": report.z_mode,
                "notes": list(report.notes),
            },
            rows=[[r.d, r.deviation] for r in report.rows],
            goldens={
                "total": report.total,
                "total_over_psi": report.total_over_psi,
            },
        )
    _emit(
        [
            ("total", format_sig12(report.total)),
            ("total_over_psi", format_sig12(report.total_over_psi)),
            ("rows", len(report.rows)),
        ]
        + ([("out", args.out)] if args.out else [])
    )
    return 0


def _run_ftratio(args) -> int:
    entries = [v for v in args.d_list.split(",") if v.strip()]
    if not entries:
        raise DomainError("--d-list names no modulus")
    d_list = [experiments.parse_number(v, int, "--d-list") for v in entries]
    rows = experiments.ft_ratio_scan(args.x, args.y, d_list)
    if args.out:
        experiments.write_ft_csv(args.out, rows)
    for r in rows:
        _emit(zip(experiments.FT_CSV_HEADER.split(","), experiments.record_cells(r)))
    if args.out:
        _emit([("out", args.out)])
    return 0


#: Built once: argparse returns a fresh Namespace from every parse.
_PARSER = build_parser()

_HANDLERS = {
    "psi": _run_psi,
    "rho": _run_rho,
    "tsum": _run_tsum,
    "vsum": _run_vsum,
    "scan": _run_scan,
    "discrepancy": _run_discrepancy,
    "ftratio": _run_ftratio,
}


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (SmoothlabError, OSError) as exc:  # OSError: reading --config, writing --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
