import json
import math

import pytest

from smoothlab import (
    DomainError,
    ScanConfig,
    ZETA2_INV,
    error_fit,
    ft_ratio_scan,
    granville_discrepancy,
    psi,
    range_check,
)
from smoothlab.experiments import (
    FT_CSV_HEADER,
    SCAN_CSV_HEADER,
    ScanRecord,
    convergence_scan,
    load_config,
    parse_config,
    read_ft_csv,
    read_scan_csv,
    scan_record_line,
    thread_count,
    write_ft_csv,
    write_json_report,
    write_scan_csv,
)
from smoothlab.formats import format_sig12


def small_scan(tmp_path=None, out=None):
    return ScanConfig(
        x_grid=(10.0, 100.0),
        a_list=(1, -1),
        y=3.0,
        output_path=str(out) if out else None,
    )


def test_convergence_scan_values():
    records = convergence_scan(small_scan())
    assert [(r.a, r.x) for r in records] == [(-1, 10.0), (-1, 100.0), (1, 10.0), (1, 100.0)]
    first = [r for r in records if r.a == 1 and r.x == 10.0][0]
    assert first.psi_exact == 7
    assert first.t_exact == pytest.approx(454 / 105, rel=1e-12)
    assert first.t_ratio == pytest.approx((454 / 105) / 7, rel=1e-12)
    assert first.t_err == pytest.approx(abs((454 / 105) / 7 - ZETA2_INV), rel=1e-9)
    assert first.v_exact == pytest.approx(18 / 7, rel=1e-12)
    assert first.v_err == pytest.approx(abs(18 / 7 - 30 / math.pi**2) / 10, rel=1e-9)
    assert first.u == pytest.approx(math.log(10) / math.log(3), rel=1e-12)
    # y = 3 > e so err_scale is defined here
    assert first.err_scale == pytest.approx(
        math.log(math.log(10)) * math.log(math.log(3)) / math.log(3), rel=1e-12
    )
    for r in records:
        assert 0.0 < r.t_ratio <= 1.0
        assert r.error is None


def test_scan_ratio_bound_property():
    cfg = ScanConfig(x_grid=(50.0, 500.0, 2000.0), a_list=(2, -2, 5), y=7.0)
    for r in convergence_scan(cfg):
        assert 0.0 < r.t_ratio <= 1.0
        assert r.t_err >= 0.0 and r.v_err >= 0.0


def test_scan_row_level_error_markers():
    # x below the shift leaves an empty T range; t_ratio divides fine (0),
    # but a y that breaks the smoothness domain must not kill the scan.
    cfg = ScanConfig(x_grid=(10.0, 100.0), a_list=(1,), y=0.5)
    records = convergence_scan(cfg)
    assert len(records) == 2
    assert all(r.error is not None for r in records)
    assert all(math.isnan(r.t_exact) for r in records)


def test_scan_csv_round_trip(tmp_path):
    out = tmp_path / "scan.csv"
    records = convergence_scan(small_scan(out=out))
    assert out.exists()
    text = out.read_text()
    assert text.splitlines()[0] == SCAN_CSV_HEADER
    back = read_scan_csv(out)
    # identical re-serialization, byte for byte
    assert [scan_record_line(r) for r in back] == [scan_record_line(r) for r in records]
    write_scan_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_text() == text


def test_scan_threads_deterministic(monkeypatch):
    serial = convergence_scan(small_scan())
    monkeypatch.setenv("SMOOTHLAB_THREADS", "4")
    assert thread_count() == 4
    threaded = convergence_scan(small_scan())
    assert [scan_record_line(r) for r in threaded] == [scan_record_line(r) for r in serial]
    monkeypatch.setenv("SMOOTHLAB_THREADS", "0")
    assert thread_count() >= 1


def test_scan_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(x_grid=(), a_list=(1,), y=3.0)
    with pytest.raises(DomainError):
        ScanConfig(x_grid=(10.0, 10.0), a_list=(1,), y=3.0)
    with pytest.raises(DomainError):
        ScanConfig(x_grid=(100.0, 10.0), a_list=(1,), y=3.0)
    with pytest.raises(DomainError):
        ScanConfig(x_grid=(10.0,), a_list=(0,), y=3.0)
    with pytest.raises(DomainError):
        ScanConfig(x_grid=(10.0,), a_list=(1,), y=None, y_rule="fixed")
    for C in (0.0, math.nan):
        with pytest.raises(DomainError):
            ScanConfig(x_grid=(10.0,), a_list=(1,), y=3.0, C=C)
    for grid in ((math.nan,), (10.0, math.nan), (math.nan, 10.0)):
        with pytest.raises(DomainError, match="nan"):
            ScanConfig(x_grid=grid, a_list=(1,), y=3.0)
    # inf stays a grid point; it fails on its own row of the scan.
    assert ScanConfig(x_grid=(10.0, math.inf), a_list=(1,), y=3.0).x_grid[-1] == math.inf


def test_theorem_range_rule():
    cfg = ScanConfig(x_grid=(1e4,), a_list=(1,), y_rule="theorem_range", C=2.0)
    y = cfg.y_for(1e4)
    assert y == pytest.approx(
        math.exp(2.0 * math.sqrt(math.log(1e4) * math.log(math.log(math.log(1e4))))),
        rel=1e-12,
    )
    with pytest.raises(DomainError):
        cfg.y_for(10.0)


def test_granville_examples():
    report = granville_discrepancy(10, 3, 2, "fixed_x")
    assert report.total == 0.0
    assert report.rows[0].d == 1 and report.rows[0].deviation == 0.0
    assert report.rows[1].deviation == 0.0
    assert report.total_over_psi == 0.0


def test_granville_structure():
    report = granville_discrepancy(1000, 7, 5, "fixed_x")
    assert report.rows[0].deviation == 0.0  # d = 1 is exact by construction
    assert report.total == pytest.approx(
        math.fsum(r.deviation for r in report.rows), abs=0.0
    )
    assert all(r.deviation >= 0.0 for r in report.rows)
    assert report.total_over_psi == pytest.approx(report.total / psi(1000, 7), rel=1e-12)


def test_granville_z_grid_mode():
    fixed = granville_discrepancy(1000, 7, 5, "fixed_x")
    grid = granville_discrepancy(1000, 7, 5, "max_over_grid")
    assert len(grid.z_values) > 1
    assert grid.z_values[-1] == 1000.0
    # max over more z values can only grow
    for rf, rg in zip(fixed.rows, grid.rows):
        assert rg.deviation >= rf.deviation
    assert any("geometric grid" in n for n in grid.notes)


def test_granville_delta_clamp():
    report = granville_discrepancy(10, 3, 50, "fixed_x")
    assert report.delta == 10.0
    assert any("clamped" in n for n in report.notes)
    with pytest.raises(DomainError):
        granville_discrepancy(10, 3, 0.5, "fixed_x")
    with pytest.raises(DomainError):
        granville_discrepancy(10, 3, 2, "bogus")


def test_ft_ratio_examples():
    rows = ft_ratio_scan(10, 3, [2, 1])
    assert [r.d for r in rows] == [1, 2]
    assert rows[0].ratio == 1.0
    assert rows[0].dev == 0.0
    assert rows[1].ratio == pytest.approx(6 / 7, rel=1e-14)
    scale = math.log(math.log(2 * 3)) * math.log(math.log(10)) / math.log(3)
    assert rows[1].lemma_scale == pytest.approx(scale, rel=1e-12)


def test_ft_csv_round_trip(tmp_path):
    rows = ft_ratio_scan(1000, 7, [1, 2, 7, 30])
    path = tmp_path / "ft.csv"
    write_ft_csv(path, rows)
    assert path.read_text().splitlines()[0] == FT_CSV_HEADER
    back = read_ft_csv(path)
    write_ft_csv(tmp_path / "ft2.csv", back)
    assert (tmp_path / "ft2.csv").read_text() == path.read_text()


SCAN_ROW = "100,3,4.19180654858,1,10,11.6,5.5,20.2,0.55,0.05,0.1,0.3"


@pytest.mark.parametrize(
    "reader, header, rows, match",
    [
        (read_scan_csv, SCAN_CSV_HEADER, [SCAN_ROW, SCAN_ROW.replace(",1,", ",abc,", 1)],
         "malformed number 'abc' in column 'a' of scan CSV line 3"),
        (read_scan_csv, SCAN_CSV_HEADER, [SCAN_ROW.replace(",0.3", ",0.3x")],
         "'0.3x' in column 'err_scale' of scan CSV line 2"),
        (read_scan_csv, SCAN_CSV_HEADER, ["", SCAN_ROW.rsplit(",", 1)[0]],
         "scan CSV line 3: 11 cells, expected 12"),
        (read_ft_csv, FT_CSV_HEADER, ["2,0.5,0.5,1.2", "3,zz,0.1,1.3"],
         "malformed number 'zz' in column 'ratio' of ratio CSV line 3"),
        (read_ft_csv, FT_CSV_HEADER, ["2.5,0.5,0.5,1.2"],
         "'2.5' in column 'd' of ratio CSV line 2"),
        (read_ft_csv, FT_CSV_HEADER, ["2,0.5,0.5"], "ratio CSV line 2: 3 cells, expected 4"),
        (read_ft_csv, FT_CSV_HEADER, ["2,0.5,0.5,1.2,7"], "ratio CSV line 2: 5 cells, expected 4"),
    ],
    ids=["scan-bad-int", "scan-bad-float", "scan-short-row", "ft-bad-float", "ft-bad-int",
         "ft-short-row", "ft-long-row"],
)
def test_csv_readers_reject_malformed_rows(reader, header, rows, match, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(DomainError, match=match):
        reader(path)


def test_range_check_flags():
    flags = range_check(100, 100, C=2.0)
    assert flags.in_theorem_range is True
    assert flags.in_lemma1_range is True
    assert flags.u == pytest.approx(1.0)

    frozen = range_check(1e6, 1e3, C=2.0)
    assert frozen.theorem_threshold == pytest.approx(1486.293447919724, rel=1e-12)
    assert frozen.in_theorem_range is False
    # at epsilon = 0.5 the lower edge sits above y = 1000
    assert frozen.lemma1_lower == pytest.approx(3289.0850557356366, rel=1e-12)
    assert frozen.in_lemma1_range is False
    assert range_check(1e6, 1e3, C=2.0, epsilon=0.1).in_lemma1_range is True

    small = range_check(10, 3, C=2.0)  # 10 < e^e: iterated log undefined
    assert small.in_theorem_range is None
    assert math.isnan(small.theorem_threshold)

    assert flags.in_lemma5_d_bound(1)
    big_d = int(math.exp(math.exp(frozen.lemma5_threshold))) + 2
    assert not frozen.in_lemma5_d_bound(big_d)
    with pytest.raises(DomainError):
        range_check(10, 30)
    # nan once gave False flags instead of an error
    for kwargs in ({"C": math.nan}, {"epsilon": math.nan}, {"epsilon": math.inf}):
        with pytest.raises(DomainError):
            range_check(1e6, 1e3, **kwargs)


def test_error_fit_forms():
    def rec(t_err, err_scale):
        return ScanRecord(
            x=1.0, y=1.0, u=1.0, a=1, psi_exact=1, psi_rho_est=1.0,
            t_exact=1.0, v_exact=1.0, t_ratio=1.0, t_err=t_err, v_err=0.0,
            err_scale=err_scale,
        )

    zero = error_fit([rec(0.0, s) for s in (0.5, 1.0, 2.0)])
    assert zero.c == 0.0 and zero.residual_norm == 0.0

    single_scale = error_fit([rec(e, 0.5) for e in (0.1, 0.2, 0.3)])
    assert single_scale.c == pytest.approx((0.2) / 0.5, rel=1e-12)

    with pytest.raises(DomainError):
        error_fit([rec(0.1, 0.0) for _ in range(3)])
    with pytest.raises(DomainError):
        error_fit([rec(0.1, 0.5), rec(0.2, float("nan"))])


def test_json_report(tmp_path):
    path = tmp_path / "report.json"
    write_json_report(path, config={"x": 10}, rows=[[1, 0.0]], goldens={"total": 0.0})
    payload = json.loads(path.read_text())
    assert set(payload) == {"config", "rows", "goldens"}
    assert payload["config"] == {"x": 10}


def test_parse_config_round_trip(tmp_path):
    text = """
# convergence scan
x_grid = 1e4, 1e5
y = 1000
a_list = 1, -3
C = 2.5
out = scan.csv
"""
    cfg = parse_config(text)
    assert cfg.x_grid == (1e4, 1e5)
    assert cfg.y == 1000.0
    assert cfg.a_list == (1, -3)
    assert cfg.C == 2.5
    assert cfg.output_path == "scan.csv"
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert load_config(path) == cfg
    # keys that no output ever read are rejected, not silently ignored
    for key in ("epsilon", "delta_gamma", "delta_delta", "A"):
        with pytest.raises(DomainError, match=f"unknown config key '{key}'"):
            parse_config(text + f"{key} = 1.0\n")


def test_parse_config_theorem_rule_and_errors():
    cfg = parse_config("x_grid = 1e4\na_list = 1")
    assert cfg.y_rule == "theorem_range"
    with pytest.raises(DomainError):
        parse_config("x_grid = 10\na_list = 1\nbogus = 3")
    with pytest.raises(DomainError):
        parse_config("a_list = 1")
    with pytest.raises(DomainError):
        parse_config("x_grid 10")
    with pytest.raises(DomainError, match="C must be positive"):
        parse_config("x_grid = 1e4\na_list = 1\nC = nan")
    with pytest.raises(DomainError, match="x_grid must not hold nan"):
        parse_config("x_grid = 10, nan\ny = 3\na_list = 1")
    for text, where in [
        ("x_grid = abc\na_list = 1", "'x_grid' on line 1"),
        ("x_grid = 10, \na_list = 1", "'x_grid' on line 1"),
        ("x_grid = 10\na_list = 1.5", "'a_list' on line 2"),
        ("x_grid = 10\n\ny = zz\na_list = 1", "'y' on line 3"),
        ("x_grid = 10\na_list = 1\nC = q", "'C' on line 3"),
    ]:
        with pytest.raises(DomainError, match=where):
            parse_config(text)


def test_format_sig12_goldens():
    assert format_sig12(0.3068528194400547) == "0.306852819440"
    assert format_sig12(4.323809523809524) == "4.32380952381"
    assert format_sig12(0.6176870748299319) == "0.617687074830"
    assert format_sig12(7) == "7"
    assert format_sig12(float("nan")) == "nan"
    assert format_sig12(-0.5) == "-0.500000000000"
