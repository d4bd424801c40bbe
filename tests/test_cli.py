import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import smoothlab
from smoothlab import census, cli, dickman
from smoothlab.cli import build_parser, run
from smoothlab.dickman import LOG_UNDERFLOW, build_rho_table, rho_log
from smoothlab.formats import format_sig12
from smoothlab.experiments import read_ft_csv, read_scan_csv, write_scan_csv


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_psi_golden():
    code, out, _ = invoke(["psi", "--x", "10", "--y", "3"])
    assert code == 0
    assert out == "psi=7\n"


def test_rho_golden():
    code, out, _ = invoke(["rho", "--u", "2"])
    assert code == 0
    assert out == "rho=0.306852819440\n"


@pytest.mark.parametrize(
    "u", [126, 126.085, 126.09, 126.99, 127, 127.0001, 500, 9999.5, 10000]
)
def test_rho_on_both_sides_of_the_underflow_cutoff(u):
    # The series value, rounded to 0.0 below the underflow: what rho gave
    # before it stopped at UNDERFLOW_FROM.
    log_rho = rho_log(build_rho_table(max(2, u)), u)
    want = format_sig12(0.0 if log_rho < LOG_UNDERFLOW else math.exp(log_rho))
    assert invoke(["rho", "--u", str(u)]) == (0, f"rho={want}\n", "")


def test_rho_builds_a_table_only_below_the_cutoff(advance_calls):
    assert invoke(["rho", "--u", "500"]) == (0, "rho=0.00000000000\n", "")
    assert advance_calls == []
    assert invoke(["rho", "--u", "126.5"]) == (0, "rho=0.00000000000\n", "")
    assert advance_calls == list(range(2, 127))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--h", "nan"], "step must be positive with a finite reciprocal, got nan"),
        (["--h", "1e-320"], "step must be positive with a finite reciprocal, got 1e-320"),
        (["--h", "0.5"], "step 0.5 too coarse; need h <= 1/64"),
        (["--u", "10001"], "u_max=10001.0 exceeds the table limit of 10000 units"),
    ],
)
def test_rho_past_the_cutoff_refuses_what_a_table_refuses(argv, message, advance_calls):
    assert invoke(["rho", "--u", "500", *argv]) == (1, "", f"error: {message}\n")
    assert advance_calls == []


def test_tsum_golden():
    code, out, _ = invoke(["tsum", "--x", "10", "--y", "3", "--a", "1"])
    assert code == 0
    assert out == "t=4.32380952381 ratio=0.617687074830\n"


def test_tsum_with_split():
    code, out, _ = invoke(["tsum", "--x", "10", "--y", "3", "--a", "1", "--delta", "2"])
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["sigma1"] == "5.00000000000"
    assert float(fields["sigma2"]) == pytest.approx(-71 / 105, abs=1e-11)
    assert fields["total"] == fields["t"]


def test_vsum():
    code, out, _ = invoke(["vsum", "--x", "10", "--y", "3", "--a", "1"])
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert float(fields["v"]) == pytest.approx(18 / 7, rel=1e-11)
    assert float(fields["v_main"]) == pytest.approx(3.0396355093, abs=1e-9)


def test_vsum_near_the_shift_bound_sums_its_numerator_exactly():
    # 4000 totients near 2^52: their sum, 10951215200043162544, is past 2^63.
    argv = ["vsum", "--x", "4000", "--y", "inf", "--a", "-4503599627366496"]
    assert invoke(argv) == (0, "v=2737803800010000 v_main=1215.85420371\n", "")


def test_domain_error_exit_code():
    code, out, err = invoke(["tsum", "--x", "10", "--y", "3", "--a", "0"])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_an_interrupt_exits_130_with_one_error_line(monkeypatch):
    # SIGINT during a long pass ended in a KeyboardInterrupt traceback.
    def interrupted(_args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "vsum", interrupted)
    try:
        got = invoke(["vsum", "--x", "4e15", "--y", "30", "--a", "1"])
    except KeyboardInterrupt:  # caught here, or it would stop the whole session
        got = "the interrupt escaped cli.run"
    assert got == (130, "", "error: interrupted\n")


@pytest.mark.parametrize(
    "argv, inf_out",
    [
        (["psi", "--x", "1e5"], "psi=100000\n"),
        (["tsum", "--x", "1e5", "--a", "1"], "t=60792.4626528 ratio=0.607924626528\n"),
        (["vsum", "--x", "1e5", "--a", "-2"], "v=30397.7021200 v_main=30396.3550927\n"),
    ],
)
def test_nan_y_is_rejected_and_inf_y_means_no_bound(argv, inf_out):
    code, out, err = invoke(argv + ["--y", "nan"])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert invoke(argv + ["--y", "inf"]) == (0, inf_out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["tsum", "--x", "1000", "--y", "30", "--a", "1", "--delta", "nan"],
        ["discrepancy", "--x", "1000", "--y", "30", "--delta", "nan"],
        ["discrepancy", "--x", "nan", "--y", "30", "--delta", "5"],
        ["discrepancy", "--x", "inf", "--y", "30", "--delta", "5"],
        ["ftratio", "--x", "nan", "--y", "30", "--d-list", "2,3"],
        ["ftratio", "--x", "inf", "--y", "30", "--d-list", "2,3"],
        ["ftratio", "--x", "1000", "--y", "30", "--d-list", "2,4503599627370497"],
        # No modulus at all printed nothing and exited 0.
        ["ftratio", "--x", "1000", "--y", "30", "--d-list", ","],
        ["ftratio", "--x", "1000", "--y", "30", "--d-list", " "],
    ],
)
def test_non_finite_or_too_large_moduli_inputs_are_rejected(argv):
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--u", "nan"],
        ["rho", "--u", "inf"],
        ["rho", "--u", "1e6"],
        ["rho", "--u", "3", "--h", "nan"],
        ["rho", "--u", "3", "--h", "1e-320"],
        ["psi", "--x", "nan", "--y", "30"],
        ["psi", "--x", "inf", "--y", "30"],
        ["tsum", "--x", "nan", "--y", "30", "--a", "1"],
        ["tsum", "--x", "inf", "--y", "30", "--a", "1"],
        ["tsum", "--x", "inf", "--y", "30", "--a", "1", "--delta", "5"],
        ["vsum", "--x", "nan", "--y", "30", "--a", "1"],
        ["vsum", "--x", "inf", "--y", "30", "--a", "1"],
        ["psi", "--x", "1e17", "--y", "30"],
        ["tsum", "--x", "1e17", "--y", "30", "--a", "1"],
        ["tsum", "--x", "1e17", "--y", "30", "--a", "-1", "--delta", "5"],
        ["vsum", "--x", "1e17", "--y", "30", "--a", "1"],
        # Past the quotient count's budget; each ran unbounded, sieving up to x or a.
        ["psi", "--x", "4e15", "--y", "1e3"],
        ["ftratio", "--x", "4e15", "--y", "1e3", "--d-list", "2,3"],
        ["tsum", "--x", "4e15", "--y", "1e3", "--a", "3999999999999000"],
        ["vsum", "--x", "4e15", "--y", "1e3", "--a", "3999999999999000"],
    ],
)
def test_non_finite_or_too_large_x_u_h_are_rejected_fast(argv):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, config",
    [
        (["ftratio", "--x", "100", "--y", "30", "--d-list", "1.5"], None),
        (["ftratio", "--x", "100", "--y", "30", "--d-list", "2,,abc"], None),
        (["scan", "--config", "{tmp}/scan.cfg"], "x_grid = abc\ny = 30\na_list = 1\n"),
        (["scan", "--config", "{tmp}/scan.cfg"], "x_grid = 100\ny = 30\na_list = 1.5\n"),
        (["scan", "--config", "{tmp}/scan.cfg"], "x_grid = 100\ny = zz\na_list = 1\n"),
        (["scan", "--config", "{tmp}/scan.cfg"], "x_grid = 1e4\na_list = 1\nC = q\n"),
        (["scan", "--config", "{tmp}/missing.cfg"], None),
        (["scan", "--config", "{tmp}/scan.cfg"], "x_grid = 10\xff\na_list = 1\n"),
        (
            ["scan", "--config", "{tmp}/scan.cfg", "--out", "{tmp}/no/dir.csv"],
            "x_grid = 100\ny = 30\na_list = 1\n",
        ),
        (
            ["scan", "--config", "{tmp}/scan.cfg", "--out", "{tmp}/no/dir.csv"],
            "x_grid = 2e6, 4e6\ny = 1e5\na_list = 1, -1, 2, 6\n",
        ),
        (["discrepancy", "--x", "100", "--y", "30", "--delta", "5", "--out", "{tmp}/no/x.json"],
         None),
        (["ftratio", "--x", "100", "--y", "30", "--d-list", "2,3", "--out", "{tmp}/no/x.csv"],
         None),
        (["ftratio", "--x", "100", "--y", "30", "--d-list", "2,3", "--out", "{tmp}"], None),
    ],
    ids=[
        "d-list-float", "d-list-word", "config-x_grid", "config-a_list", "config-y", "config-C",
        "config-missing", "config-not-text", "scan-out-dir", "scan-out-dir-costly",
        "discrepancy-out-dir",
        "ftratio-out-dir", "ftratio-out-is-dir",
    ],
)
def test_malformed_numbers_and_file_errors_are_rejected(argv, config, tmp_path):
    if config is not None:
        (tmp_path / "scan.cfg").write_bytes(config.encode("latin-1"))
    start = time.perf_counter()
    code, out, err = invoke([arg.format(tmp=tmp_path) for arg in argv])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tsum", "--x", "20000.5", "--y", "30", "--a", "7"],
        ["tsum", "--x", "20000.5", "--y", "30", "--a", "-3"],
        ["vsum", "--x", "20000.5", "--y", "30", "--a", "7"],
        ["vsum", "--x", "20000.5", "--y", "30", "--a", "-3"],
        ["scan", "--config", "{tmp}/scan.cfg"],
        ["tsum", "--x", "20000.5", "--y", "1e5", "--a", "7"],
        ["tsum", "--x", "20000.5", "--y", "1e5", "--a", "-3"],
        ["vsum", "--x", "20000.5", "--y", "1e5", "--a", "7"],
        ["vsum", "--x", "20000.5", "--y", "1e5", "--a", "-3"],
        # The Moebius split marks n - a from the T pass's own segments.
        ["tsum", "--x", "20000.5", "--y", "30", "--a", "7", "--delta", "50"],
        ["tsum", "--x", "20000.5", "--y", "30", "--a", "-3", "--delta", "50"],
        ["tsum", "--x", "20000.5", "--y", "1e5", "--a", "7", "--delta", "50"],
        ["tsum", "--x", "20000.5", "--y", "1e5", "--a", "-3", "--delta", "50"],
    ],
)
def test_tsum_and_vsum_test_each_n_for_smoothness_once(argv, smooth_mask_entries, tmp_path):
    # The scan reads its three x and both shifts from one pass, which tests
    # each n above the least max(a, 0) once; the quotient count takes
    # Psi(a, y) unsieved.
    (tmp_path / "scan.cfg").write_text("x_grid = 5000, 12500.5, 20000.5\ny = 30\na_list = 7, -3\n")
    code, _out, err = invoke([arg.format(tmp=tmp_path) for arg in argv])
    assert (code, err) == (0, "")
    shifts = [7, -3] if argv[0] == "scan" else [int(argv[argv.index("--a") + 1])]
    assert sum(smooth_mask_entries) == 20000 - min(max(a, 0) for a in shifts)


@pytest.mark.parametrize(
    "config",
    ["x_grid = 10, 100\ny = 1\na_list = 1\n", "x_grid = -5, 0\ny = 30\na_list = 1\n"],
    ids=["y-one", "x-not-positive"],
)
def test_scan_points_without_a_logarithm_are_error_rows(config, tmp_path):
    (tmp_path / "scan.cfg").write_text(config)
    code, out, err = invoke(["scan", "--config", str(tmp_path / "scan.cfg")])
    assert (code, out) == (0, "rows=2 failed=2\n")
    assert "Traceback" not in err and err == ""


def test_a_refused_head_psi_leaves_the_scan_answering(tmp_path):
    # Both groups' head psi is refused before its pass; the scan exited 1.
    (tmp_path / "scan.cfg").write_text(
        "x_grid = 10000000000050, 10000000000100\ny = 1e3\n"
        "a_list = 10000000000010, 10000000000000\n"
    )
    start = time.perf_counter()
    assert invoke(["scan", "--config", str(tmp_path / "scan.cfg")]) == (0, "rows=4 failed=4\n", "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, windows",
    [
        (["tsum", "--x", "2e5", "--y", "30", "--a", "1"], False),
        (["tsum", "--x", "2e5", "--y", "1e5", "--a", "1"], True),
    ],
    ids=["sparse", "dense"],
)
def test_sparse_smooth_n_take_phi_without_a_window(argv, windows, phi_window_entries):
    code, _out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert bool(phi_window_entries) == windows


@pytest.mark.parametrize(
    "a, line, union",
    [
        ("7", "t=172831.804853 ratio=0.618717060108\n", True),
        ("-5000000", "t=167783.741623 ratio=0.600645601304\n", False),
    ],
)
def test_a_shift_past_the_segment_keeps_the_windows_small(a, line, union, phi_window_entries):
    # A shift below the segment length strips the segment plus |a| entries at
    # once; a larger one takes the mask and the shifted window apart.
    from smoothlab import sieve

    assert invoke(["tsum", "--x", "3e5", "--y", "1e5", "--a", a]) == (0, line, "")
    extra = abs(int(a)) if union else 0
    assert max(phi_window_entries) == sieve.STREAM_SEGMENT + extra


def test_blank_d_list_entries_are_skipped():
    argv = ["ftratio", "--x", "100", "--y", "30", "--d-list"]
    assert invoke(argv + [",2,, 3, "]) == invoke(argv + ["2,3"])


def test_infinite_delta_puts_all_of_t_in_sigma1():
    argv = ["tsum", "--x", "1000", "--y", "30", "--a", "1", "--delta", "inf"]
    assert invoke(argv) == (
        0,
        "t=275.428468754 ratio=0.685145444661 sigma1=275.428468754 "
        "sigma2=0.00000000000 total=275.428468754 delta_used=inf\n",
        "",
    )


def test_huge_moduli_stay_cheap():
    start = time.perf_counter()
    code, out, err = invoke(
        ["ftratio", "--x", "100000", "--y", "30", "--d-list", "2,1000000000000,999999999989"]
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out == (
        "d=2 ratio=0.576967816983 dev=0.423032183017 lemma_scale=1.01268220278\n"
        "d=999999999989 ratio=1.00000000000 dev=0.00000000000100008890058 "
        "lemma_scale=2.46777331526\n"
        "d=1000000000000 ratio=0.374660721210 dev=0.625339278790 lemma_scale=2.46777331526\n"
    )
    assert elapsed < 1.0


def test_ftratio_factors_a_prime_modulus_near_2_52_in_bounded_time():
    # A prime table up to sqrt(d) = 2^26 took 1.78 s and 211 MB for this line.
    start = time.perf_counter()
    assert invoke(["ftratio", "--x", "1e12", "--y", "1e12", "--d-list", "4503599627370449"]) == (
        0,
        "d=4503599627370449 ratio=1.00000000000 dev=0.000000000000000222044604925 "
        "lemma_scale=0.498937976523\n",
        "",
    )
    assert time.perf_counter() - start < 0.5


def test_psi_at_1e12_answers_in_under_two_seconds():
    # A memoized Buchstab recursion on (m, k) gives the same count.
    start = time.perf_counter()
    assert invoke(["psi", "--x", "1e12", "--y", "100"]) == (0, "psi=66932543\n", "")
    assert time.perf_counter() - start < 2.0


def test_ftratio_past_the_sieve_reach_sieves_nothing(strip_windows, quotient_counts):
    # The sieve took 65 s over its 4e9 entries for these lines; one quotient
    # count of V(4e9) reads Psi(4e9 / e, 30) at the terms e = 1, 2, 1 and 3.
    assert invoke(["ftratio", "--x", "4e9", "--y", "30", "--d-list", "2,3"]) == (
        0,
        "d=2 ratio=0.392869943846 dev=0.607130056154 lemma_scale=1.28312353829\n"
        "d=3 ratio=0.441871656334 dev=0.558128343666 lemma_scale=1.36907898713\n",
        "",
    )
    assert strip_windows == []
    assert quotient_counts == [(4_000_000_000, 30.0, 4)]


def test_a_shift_near_x_sieves_no_window_below_it(strip_windows, quotient_counts):
    # Psi(a, y) of the n <= a comes from the quotient count, so the windows
    # sieved are the 100 n of the terms and their values n - a from the
    # least smooth n, 19,999,902; it sieved all of [1, a].
    argv = ["vsum", "--x", "2e7", "--y", "1e5", "--a", "19999900"]
    assert invoke(argv) == (0, "v=0.000120792972331 v_main=6079271.01854\n", "")
    assert strip_windows == [(19_999_901, 20_000_000), (2, 100)]
    assert quotient_counts == [(19_999_900, 1e5, 1)]


def test_ftratio_streams_past_the_materialized_span():
    # 1.5e8 > 2^27: the ratios read the segment stream, not one smooth set.
    code, out, err = invoke(["ftratio", "--x", "1.5e8", "--y", "2", "--d-list", "2,3"])
    assert (code, err) == (0, "")
    assert out == (
        "d=2 ratio=0.0714285714286 dev=0.928571428571 lemma_scale=1.38318692069\n"
        "d=3 ratio=1.50000000000 dev=0.500000000000 lemma_scale=2.46964895098\n"
    )


SMALL_REQUESTS = [
    ["psi", "--x", "1000", "--y", "30"],
    ["rho", "--u", "3"],
    ["tsum", "--x", "1000", "--y", "30", "--a", "1"],
    ["tsum", "--x", "1000", "--y", "30", "--a", "-2", "--delta", "5"],
    ["vsum", "--x", "1000", "--y", "30", "--a", "1"],
    ["scan", "--config"],
    ["discrepancy", "--x", "1000", "--y", "30", "--delta", "5"],
    ["discrepancy", "--x", "1000", "--y", "30", "--delta", "5", "--z-mode", "max_over_grid"],
    ["ftratio", "--x", "1000", "--y", "30", "--d-list", "2,6,30"],
]


def test_small_requests_cover_every_subcommand():
    assert {argv[0] for argv in SMALL_REQUESTS} == set(cli._HANDLERS)


@pytest.mark.parametrize("argv", SMALL_REQUESTS, ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_no_command_builds_a_smooth_range(argv, monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError("SmoothRange built")

    monkeypatch.setattr(census.SmoothRange, "__init__", refuse)
    if argv[0] == "scan":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("x_grid = 100, 1000\ny = 30\na_list = 1, -1\n")
        argv = argv + [str(cfg)]
    code, out, err = invoke(argv)
    assert (code, err) == (0, "") and out


def test_tsum_delta_refuses_a_too_large_range_before_the_t_pass(smooth_mask_entries):
    code, out, err = invoke(["tsum", "--x", "2e9", "--y", "30", "--a", "1", "--delta", "10"])
    assert (code, out) == (1, "")
    assert err == "error: moduli [1, 1999999999] too large to materialize\n"
    assert smooth_mask_entries == []


def test_tsum_delta_refuses_a_shift_with_too_many_moduli(smooth_mask_entries):
    # This once ended in a MemoryError traceback: the moduli ran to x - a = 2^40 + 10.
    argv = ["tsum", "--x", "10", "--y", "30", "--a", "-1099511627776", "--delta", "5"]
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err == "error: moduli [1, 1099511627786] too large to materialize\n"
    assert smooth_mask_entries == []


def test_tsum_delta_counts_its_head_psi_before_the_split(strip_windows):
    # Psi(1e12, 1e6) of the n <= a is refused; the split's T pass once
    # sieved its first part before that count, which plain tsum makes first.
    argv = ["tsum", "--x", "1000002000000", "--y", "1e6", "--a", "1000000000000", "--delta", "10"]
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: psi(x=1000000000000, y=1e+06) needs about 1e+09 quotient-table updates, "
        "budget is 536870912\n"
    )
    assert strip_windows == []


def test_one_parser_keeps_no_state_between_commands(monkeypatch):
    tsum = ["tsum", "--x", "1000", "--y", "30", "--a", "1"]
    assert "sigma1=" in invoke(tsum + ["--delta", "5"])[1]
    assert invoke(tsum) == (0, "t=275.428468754 ratio=0.685145444661\n", "")
    steps = []

    def recording(u_max, h):
        steps.append(h)
        return build_rho_table(u_max=u_max, h=h)

    monkeypatch.setattr(dickman, "build_rho_table", recording)
    assert invoke(["rho", "--u", "3", "--h", "0.015625"])[0] == 0
    assert invoke(["rho", "--u", "3"])[0] == 0
    assert steps == [1 / 64, 1 / 256]
    assert invoke(["psi", "--x", "10"])[0] == 2
    assert invoke(["psi", "--x", "10", "--y", "3"]) == (0, "psi=7\n", "")


def test_importing_the_cli_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, smoothlab, smoothlab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_module_runs_as_a_script():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def script(*argv):
        command = [sys.executable, "-m", "smoothlab.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True)

    done = script("psi", "--x", "10", "--y", "3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "psi=7\n", "")
    done = script("psi", "--x", "nan", "--y", "3")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_usage_error_exit_code():
    code, _, err = invoke(["psi", "--x", "10"])  # missing --y
    assert code == 2
    code, _, err = invoke(["psi", "--x", "10", "--y", "3", "--bogus", "1"])
    assert code == 2
    code, _, _ = invoke(["unknowncmd"])
    assert code == 2


def test_help_lists_documented_flags():
    for cmd, flags in [
        ("psi", ["--x", "--y"]),
        ("rho", ["--u", "--h"]),
        ("tsum", ["--x", "--y", "--a", "--delta"]),
        ("vsum", ["--x", "--y", "--a"]),
        ("scan", ["--config", "--out"]),
        ("discrepancy", ["--x", "--y", "--delta", "--z-mode", "--out"]),
        ("ftratio", ["--x", "--y", "--d-list", "--out"]),
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        text = out.getvalue()
        for flag in flags:
            assert flag in text, (cmd, flag)


def test_readme_gives_each_exported_name_without_a_subcommand_a_reason():
    # The list once carried a "No reason" bullet for a name that nothing read.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    intro = "Exported names that no subcommand reaches stay for one reason each:\n\n"
    bullets = re.split(r"^- ", readme.split(intro, 1)[1].split("\n\n", 1)[0], flags=re.M)[1:]
    named = [re.findall(r"`(\w+)`", bullet) for bullet in bullets]
    assert bullets and all(named)
    assert not [bullet for bullet in bullets if "No reason" in bullet]
    assert {name for names in named for name in names} - set(smoothlab.__all__) == set()


def test_scan_csv_round_trip(tmp_path):
    cfg = tmp_path / "cfg.txt"
    out_csv = tmp_path / "scan.csv"
    cfg.write_text("x_grid = 10, 100\ny = 3\na_list = 1, -1\n")
    code, out, _ = invoke(["scan", "--config", str(cfg), "--out", str(out_csv)])
    assert code == 0
    assert f"out={out_csv}" in out
    assert "rows=4" in out and "failed=0" in out
    records = read_scan_csv(out_csv)
    assert len(records) == 4
    rewritten = tmp_path / "rewrite.csv"
    write_scan_csv(rewritten, records)
    assert rewritten.read_text() == out_csv.read_text()


def test_scan_records_an_infinite_x_as_a_failed_row(tmp_path):
    rows = {}
    for name, grid in (("finite", "10, 100"), ("with_inf", "10, 100, inf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"x_grid = {grid}\ny = 3\na_list = 1\nout = {tmp_path / name}.csv\n")
        code, out, err = invoke(["scan", "--config", str(cfg)])
        assert (code, err) == (0, "")
        rows[name] = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert "rows=3 failed=1" in out
    assert [r for r in rows["with_inf"] if not r.startswith("inf,")] == rows["finite"]


def test_scan_uses_config_out(tmp_path):
    out_csv = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"x_grid = 10\ny = 3\na_list = 1\nout = {out_csv}\n")
    code, out, _ = invoke(["scan", "--config", str(cfg)])
    assert code == 0
    assert out_csv.exists()


@pytest.mark.parametrize(
    "extra, error",
    [
        # The later x_grid once won in silence: this scanned x = 200 alone.
        ("x_grid = 200\n", "error: config key 'x_grid' on line 4 repeats line 1\n"),
        ("y = 3\n", "error: config key 'y' on line 4 repeats line 2\n"),
        # The later out once won in silence, as x_grid did.
        ("out = other.csv\nout = again.csv\n",
         "error: config key 'out' on line 5 repeats line 4\n"),
        ("out = # no path\n", "error: empty output path in config key 'out' on line 4\n"),
    ],
    ids=["x_grid-twice", "y-twice", "out-twice", "empty-out"],
)
def test_scan_refuses_a_config_key_it_would_ignore(tmp_path, monkeypatch, extra, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg").write_text(f"x_grid = 1000, 5000\ny = 7\na_list = 1\n{extra}")
    assert invoke(["scan", "--config", "cfg", "--out", "scan.csv"]) == (1, "", error)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--config", "cfg", "--out", ""],
        ["discrepancy", "--x", "100", "--y", "7", "--delta", "5", "--out", ""],
        ["ftratio", "--x", "100", "--y", "7", "--d-list", "2,3", "--out", ""],
    ],
    ids=["scan", "discrepancy", "ftratio"],
)
def test_an_empty_out_is_a_usage_error(tmp_path, monkeypatch, argv):
    # Each once exited 0 and wrote nothing; scan's even dropped the config's out.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg").write_text("x_grid = 10, 100\ny = 3\na_list = 1\nout = config.csv\n")
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --out: invalid output_path value: ''\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg"]


def test_discrepancy_json(tmp_path):
    report = tmp_path / "disc.json"
    code, out, _ = invoke(
        ["discrepancy", "--x", "10", "--y", "3", "--delta", "2", "--out", str(report)]
    )
    assert code == 0
    assert "total=0.00000000000" in out
    payload = json.loads(report.read_text())
    assert set(payload) == {"config", "rows", "goldens"}
    assert payload["rows"] == [[1, 0.0], [2, 0.0]]


def test_ftratio_output(tmp_path):
    out_csv = tmp_path / "ft.csv"
    code, out, _ = invoke(
        ["ftratio", "--x", "10", "--y", "3", "--d-list", "2,1", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d=1 ratio=1.00000000000")
    assert lines[1].startswith("d=2 ratio=0.857142857143")
    rows = read_ft_csv(out_csv)
    assert [r.d for r in rows] == [1, 2]
