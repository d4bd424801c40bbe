"""One workload session, run by ``run.py`` as a fresh child process.

    python3 perfbench/session.py --workload W --seed S --tmp DIR
        [--seconds T | --rounds N] [--setup-only] [--trace SPANS] [--check]

Set-up imports smoothlab (with numpy and scipy), builds the seeded request
list and writes the scan config files; then the session prints ``ready``.
The closed loop that follows has one client on one thread: it issues each
request through ``smoothlab.cli.run`` in-process, with stdout and stderr
captured, and sends the next only after the previous returns.  It runs
whole rounds until T seconds have passed, or exactly N rounds, and ends
early if the pool runs out.  A fresh process per run means the library's
``lru_cache``s and ``ru_maxrss`` start clean.

Between requests the session times the host-speed kernel (see
``hostspeed.py``); ``loop_s`` in the report leaves that time out.  With
``--trace`` the layer functions are wrapped (see ``tracer.py``) and the
spans are written to SPANS.  With ``--check`` every output is checked after
the loop (see ``checks.py``).  The last stdout line is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from smoothlab import cli

import checks
import hostspeed
import tracer as tracing
import workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, metavar="SPANS")
    p.add_argument("--check", action="store_true")
    return p.parse_args(argv)


def prepare(workload, seed, tmp):
    """The seeded rounds, with every scan config written under ``tmp``."""
    batches = workloads.rounds(workload, seed)
    for batch in batches:
        for req in batch:
            workloads.write_config(req, tmp)
    return batches


def run_loop(batches, tmp, seconds=None, n_rounds=None, tracer=None, sampler=None):
    """Issue whole rounds of requests; returns (results, rounds, loop seconds).

    Each result is (request, latency_s, outcome) where outcome has the exit
    code, stdout and stderr.  Stops after ``n_rounds`` rounds, or after the
    first round that ends ``seconds`` or more after the loop started.  The
    sampler, if given, times the host-speed kernel between requests.
    """
    run = cli.run  # the traced wrapper when a tracer is installed
    results = []
    done = 0
    start = time.perf_counter()
    for batch in batches:
        if n_rounds is not None and done >= n_rounds:
            break
        if seconds is not None and done > 0 and time.perf_counter() - start >= seconds:
            break
        done += 1
        for req in batch:
            argv = [a.replace("{tmp}", tmp) for a in req["argv"]]
            if tracer is not None:
                tracer.request = len(results)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
            except Exception as exc:  # a crash is a failed request, not a dead run
                code = f"raised {exc!r}"
            latency = time.perf_counter() - t0
            results.append((req, latency, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                                           "start_s": t0}))
            if sampler is not None:
                sampler.maybe_sample()
    return results, done, time.perf_counter() - start


def _digest(outcome, tmp):
    h = hashlib.sha256(outcome["stdout"].replace(tmp, "{tmp}").encode())
    h.update(outcome.get("csv", "").encode())
    return h.hexdigest()


def main(argv=None):
    args = _parse(argv)
    proto = sys.stdout
    batches = prepare(args.workload, args.seed, args.tmp)
    print("ready", file=proto, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    sampler = hostspeed.Sampler()
    results, rounds_done, loop_s = run_loop(batches, args.tmp, args.seconds, args.rounds, tracer, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    for req, _lat, outcome in results:
        if req["kind"] == "scan":
            path = os.path.join(args.tmp, req["name"] + ".csv")
            if os.path.exists(path):
                with open(path) as fh:
                    outcome["csv"] = fh.read()

    failures = []
    if args.check:
        goldens = checks.load_goldens()
        refs = checks.References()
        for req, _lat, outcome in results:
            problem = checks.check(req, outcome, goldens, refs, args.tmp)
            if problem:
                failures.append([req["key"], problem])

    report = {
        "keys": [req["key"] for req, _lat, _out in results],
        "latencies_s": [lat for _req, lat, _out in results],
        "digests": [_digest(out, args.tmp) for _req, _lat, out in results],
        "rounds": rounds_done,
        "loop_s": loop_s - sampler.spent_s,
        "kernel_s": sampler.samples,
        "request_start_s": [out["start_s"] for _req, _lat, out in results],
        "kernel_at_s": sampler.at_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        with open(args.trace, "w") as fh:
            json.dump({"spans": tracer.spans, "calls": tracer.calls, "counters": tracer.counters}, fh)
    print(json.dumps(report), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
