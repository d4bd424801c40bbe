"""Record the outputs that ``checks.py`` compares byte for byte.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Runs every request in the workload pools once through ``smoothlab.cli.run``
and writes ``perfbench/goldens.json``: for each request key, its stdout
(scratch paths shown as {tmp}) and, for scans, the CSV it wrote.  Kinds in
``checks.NO_GOLDEN`` are checked without goldens and are not recorded.
Re-record only for an intended change of output, and say so where the
change is described.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

from smoothlab import cli

import checks
import workloads


def record(workload, tmp):
    goldens = {}
    for members in workloads.pool(workload):
        for req in members:
            if req["kind"] in checks.NO_GOLDEN:
                continue
            workloads.write_config(req, tmp)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run([a.replace("{tmp}", tmp) for a in req["argv"]])
            if code != 0:
                raise SystemExit(f"{req['key']}: exit code {code}")
            entry = {"stdout": out.getvalue().replace(tmp, "{tmp}")}
            if req["kind"] == "scan":
                with open(os.path.join(tmp, req["name"] + ".csv")) as fh:
                    entry["csv"] = fh.read()
            goldens[req["key"]] = entry
    return goldens


def main():
    os.makedirs(".perfbench_out", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="goldens-", dir=".perfbench_out")
    try:
        goldens = {}
        for workload in workloads.WORKLOADS:
            goldens.update(record(workload, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(checks.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} outputs to {checks.GOLDENS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
