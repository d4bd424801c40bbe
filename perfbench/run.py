"""smoothlab CLI benchmark: one workload run, from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

The program needs no build: sessions import it from ``src/``.

--trace 0 measures the end-to-end metrics.  Set-up is timed in
SETUP_SAMPLES fresh processes, from process start to "ready", and the
median is reported.  Then one session runs the closed loop for T seconds of
whole rounds (see ``session.py``).

--trace 1 measures the per-layer metrics.  An untraced and a traced
session run the same TRACE_ROUNDS rounds, so the layer counts repeat
exactly for one seed.  The traced stdout must be byte-identical to the
untraced stdout.  trace.overhead_s is the traced request time minus the
untraced request time.

Every time is reported in seconds at the reference host speed (see
``hostspeed.py``).  Outputs are checked after the loop (see ``checks.py``).
Human-readable lines come first, and the last stdout line is the JSON
result.  A record of the run is written to .perfbench_out/.  It holds the
metrics, the raw times, the kernel samples, the kernel timed at the start
and end of the run, and provenance.  The run exits 1 without a result when a
session cannot run.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SESSION = os.path.join(HERE, "session.py")
OUT_DIR = ".perfbench_out"

SETUP_SAMPLES = 5

#: Calibration kernel samples at the start and at the end of a run.
KERNEL_SAMPLES = 10

#: Tail percentile per workload: the highest round percentile that leaves at
#: least ten requests beyond it in the shortest runs on the 2-core reference
#: box (64, 90 and 200 requests).
TAIL_PERCENTILE = {"sieve_sums": 84, "moduli": 85, "rho_tables": 95}

#: Rounds of a traced run: about one measured run's work at the parent commit.
TRACE_ROUNDS = {"sieve_sums": 2, "moduli": 3, "rho_tables": 3}

#: Every session must end within this many seconds of the run's start.
DEADLINE_S = 170.0

class SessionError(Exception):
    pass


class Runner:
    """Starts session processes and kills any still running at the deadline."""

    def __init__(self, root, workload, seed, tmp):
        self.root = root
        self.base = ["--workload", workload, "--seed", str(seed), "--tmp", tmp]
        self.env = dict(os.environ)
        self.env.pop("SMOOTHLAB_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.deadline = time.monotonic() + DEADLINE_S

    def session(self, *extra):
        """Run one session; returns (set-up seconds, final JSON line or None)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SessionError("run deadline passed")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, SESSION, *self.base, *extra],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            raise SessionError(f"session {' '.join(extra)} failed with exit code {code}")
        lines = rest.strip().splitlines()
        return setup_s, json.loads(lines[-1]) if lines else None


def _percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def measured_run(runner, workload, seconds):
    """End-to-end metrics in seconds at the reference host speed, and raw ones."""
    setups, setups_scaled, setup_kernel_s = [], [], [hostspeed.samples(2)]
    for _ in range(SETUP_SAMPLES):
        setup_s, _ = runner.session("--setup-only")
        setup_kernel_s.append(hostspeed.samples(2))
        setups.append(setup_s)
        setups_scaled.append(setup_s * hostspeed.scale(setup_kernel_s[-2] + setup_kernel_s[-1]))
    _, rep = runner.session("--seconds", str(seconds), "--check")
    lat = rep["latencies_s"]
    f = hostspeed.scale(rep["kernel_s"])
    raw = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(lat) / rep["loop_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": _percentile(lat, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    metrics = dict(raw, setup_s=statistics.median(setups_scaled), requests_per_s=raw["requests_per_s"] / f,
                   latency_p50_s=raw["latency_p50_s"] * f, latency_tail_s=raw["latency_tail_s"] * f)
    detail = {"raw_metrics": raw, "setup_samples_s": setups, "setup_kernel_s": setup_kernel_s,
              "session_kernel_s": rep["kernel_s"],
              "session_kernel_at_s": rep["kernel_at_s"], "request_start_s": rep["request_start_s"],
              "latencies_s": lat, "rounds": rep["rounds"], "loop_s": rep["loop_s"],
              "tail_percentile": TAIL_PERCENTILE[workload]}
    return metrics, len(lat), rep["failures"], detail


def traced_run(runner, workload, spans_path):
    """Per-layer metrics; times in seconds at the reference host speed."""
    n = str(TRACE_ROUNDS[workload])
    _, plain = runner.session("--rounds", n, "--check")
    _, traced = runner.session("--rounds", n, "--trace", spans_path)
    failures = list(plain["failures"])
    if plain["keys"] != traced["keys"]:
        failures.append(["*", "traced run issued other requests than the untraced run"])
    for key, a, b in zip(plain["keys"], plain["digests"], traced["digests"]):
        if a != b:
            failures.append([key, "traced stdout differs from untraced stdout"])
    f = hostspeed.scale(traced["kernel_s"])
    metrics = {}
    for name, value in traced["layers"].items():
        unit = _unit(name)
        metrics[name] = value * f if unit == "s" else value / f if unit == "1/s" else value
    traced_s = math.fsum(traced["latencies_s"])
    plain_s = math.fsum(plain["latencies_s"])
    metrics["trace.overhead_s"] = traced_s * f - plain_s * hostspeed.scale(plain["kernel_s"])
    shares = {
        "sieve": traced["layers"]["sieve.self_s"] / traced_s,
        "census.progression": traced["layers"]["census.progression.self_s"] / traced_s,
        "dickman.build": traced["layers"]["dickman.build.self_s"] / traced_s,
    }
    detail = {"raw_layers": traced["layers"], "rounds": traced["rounds"], "traced_request_s": traced_s,
              "untraced_request_s": plain_s, "shares_of_traced_request_time": shares, "spans": spans_path}
    return metrics, len(traced["keys"]), failures, detail


def provenance(root, seed):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"commit": commit, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "seed": seed}


def _unit(name):
    """A metric's unit, from its name's suffix."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description="smoothlab CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the session still running is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smoothlab", "cli.py")):
        print("error: src/smoothlab not found; run from the root of a smoothlab checkout", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = tempfile.mkdtemp(prefix=tag + "-", dir=out_dir)
    kernel_start = hostspeed.samples(KERNEL_SAMPLES)
    try:
        runner = Runner(root, args.workload, args.seed, tmp)
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{tag}.json")
            metrics, attempted, failures, detail = traced_run(runner, args.workload, spans)
        else:
            metrics, attempted, failures, detail = measured_run(runner, args.workload, args.seconds)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    kernel_end = hostspeed.samples(KERNEL_SAMPLES)

    failed = len({key for key, _reason in failures})
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failures=failures, detail=detail,
                  calibration_kernel_s={"start": kernel_start, "end": kernel_end},
                  provenance=provenance(root, args.seed))
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} failed_ratio={failed / attempted:.4f} "
          f"calibration_kernel_s={statistics.median(kernel_start):.4f},{statistics.median(kernel_end):.4f}")
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        for layer, share in detail["shares_of_traced_request_time"].items():
            print(f"  share of traced request time: {layer} = {100 * share:.1f}%")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
