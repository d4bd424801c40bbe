"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import os
import subprocess
import sys

import pytest
from smoothlab import build_rho_table, psi_enum_oracle, rho
from smoothlab.formats import format_sig12

import checks
import session
import tracer
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_seeded_distinct_and_stratified(workload):
    a, b = workloads.rounds(workload, 7), workloads.rounds(workload, 8)
    assert a == workloads.rounds(workload, 7)
    assert a != b
    keys = [req["key"] for batch in a for req in batch]
    assert len(keys) == len(set(keys))
    strata = workloads.pool(workload)
    for batch in a:
        assert len(batch) == len(strata)
        for members in strata:
            assert sum(req in members for req in batch) == 1


def _cheapest_per_kind(workload, seed):
    """One request of each kind, the smallest in x (or u) the seed's first round has."""
    best = {}
    for req in workloads.rounds(workload, seed)[0]:
        argv = req["argv"]
        size = float(argv[argv.index("--u" if "--u" in argv else "--x") + 1]) if req["kind"] != "scan" else 0.0
        if req["kind"] not in best or size < best[req["kind"]][0]:
            best[req["kind"]] = (size, req)
    return [[req for _size, req in best.values()]]


def _traced(batches, tmp):
    t = tracer.Tracer()
    t.install()
    try:
        results, _rounds, _loop_s = session.run_loop(batches, tmp, tracer=t)
    finally:
        t.uninstall()
    return t.metrics(), [out["stdout"] for _req, _lat, out in results]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_exactly_and_trace_keeps_stdout(workload, tmp_path):
    tmp = str(tmp_path)
    session.prepare(workload, 3, tmp)
    batches = _cheapest_per_kind(workload, 3)
    plain, _rounds, _loop_s = session.run_loop(batches, tmp)
    first, out1 = _traced(batches, tmp)
    second, out2 = _traced(batches, tmp)
    assert out1 == out2 == [out["stdout"] for _req, _lat, out in plain]
    assert {k: first[k] for k in tracer.EXACT_COUNTS} == {k: second[k] for k in tracer.EXACT_COUNTS}
    assert first["cli.requests"] == len(batches[0])


def _out(stdout):
    return {"code": 0, "stdout": stdout, "stderr": ""}


def test_checks_reject_wrong_outputs(tmp_path):
    refs, tmp = checks.References(), str(tmp_path)
    psi = {"key": "psi --x 100000 --y 1000", "kind": "psi", "argv": ["psi", "--x", "100000", "--y", "1000"]}
    big_y = {"key": "psi --x 100000 --y 400", "kind": "psi", "argv": ["psi", "--x", "100000", "--y", "400"]}
    want = psi_enum_oracle(1e5, 1e3)
    assert checks.check(psi, _out(f"psi={want}\n"), {}, refs, tmp) is None
    assert checks.check(psi, _out(f"psi={want + 1}\n"), {}, refs, tmp)
    assert checks.check(big_y, _out(f"psi={psi_enum_oracle(1e5, 400)}\n"), {}, refs, tmp) is None

    rho_goldens = {}
    for u, value in (("1.5", 1.0 - math.log(1.5)), ("3.5", rho(build_rho_table(4.0), 3.5)), ("400.5", 0.0)):
        req = {"key": f"rho --u {u}", "kind": "rho", "argv": ["rho", "--u", u, "--h", "0.015625"]}
        good = f"rho={format_sig12(value)}\n"
        rho_goldens[req["key"]] = {"stdout": good}
        assert checks.check(req, _out(good), rho_goldens, refs, tmp) is None
        bad = f"rho={format_sig12(value * (1 + 1e-8) if value else 1e-300)}\n"
        assert checks.check(req, _out(bad), rho_goldens, refs, tmp)
        assert checks.check(req, _out(bad), {req["key"]: {"stdout": bad}}, refs, tmp)
        assert checks.check(req, _out(good), {req["key"]: {"stdout": bad}}, refs, tmp)

    goldens = checks.load_goldens()
    tsum = next(r for b in workloads.rounds("moduli", 1) for r in b if r["kind"] == "tsum_delta")
    golden = goldens[tsum["key"]]["stdout"]
    assert checks.check(tsum, _out(golden), goldens, refs, tmp) is None
    t_field = golden.split()[0]
    tampered = golden.replace(t_field, t_field[:-1] + ("1" if t_field[-1] != "1" else "2"), 1)
    assert checks.check(tsum, _out(tampered), goldens, refs, tmp)
    assert checks.check(tsum, {"code": 1, "stdout": "", "stderr": "error: x"}, goldens, refs, tmp)


def test_rho_reference_series_matches_published_values():
    series = checks.rho_series(11)
    for u, want in ((3.0, 0.04860838829113157), (4.0, 0.004910925647760832), (10.0, 2.770171837725958e-11)):
        assert float(checks.rho_reference(series, u)) == pytest.approx(want, rel=1e-14)


def test_run_refuses_outside_a_checkout(tmp_path):
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", "rho_tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
