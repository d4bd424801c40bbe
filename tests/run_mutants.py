"""The mutation gate: every mutant of ``tests/mutants.py`` must fail its listed tests.

Run from anywhere, with the test dependencies installed::

    python tests/run_mutants.py

The listed tests first run once against ``src/`` as it is, and must pass.
Then each mutant is applied to a fresh copy of ``src/`` in a directory of
its own, and pytest runs only its listed tests against that copy there, so
each run starts from an empty hypothesis example database and a kill never
rests on an example that an earlier mutant found.  The
gate exits nonzero if a snippet does not occur exactly once in its file, or
a listed test passes on its mutant.  pytest does not collect this file (its
name does not start with ``test_``), so the suite's time does not grow.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(TESTS))

from mutants import MUTANTS  # noqa: E402

#: Seconds one pytest run of a mutant may take.
TIMEOUT = 600


def run_tests(src: Path, ids: list[str], workdir: str) -> tuple[int, set[str]]:
    """(exit code, ids of the failed or erroring tests) of pytest on ids against the package in src.

    pytest runs in workdir, so hypothesis keeps the examples of the run there.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *[str(ROOT / test) for test in ids]],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )
    failed = set()
    for line in result.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            # pytest shows a test's path relative to the directory it runs in.
            path, _, test = line.split()[1].partition("::")
            failed.add(f"{(Path(workdir) / path).resolve().relative_to(ROOT).as_posix()}::{test}")
    return result.returncode, failed


def survivors(ids: list[str], failed: set[str]) -> list[str]:
    """The listed ids with no failed test: an id without parameters matches each of its own."""
    return [test for test in ids if not any(f == test or f.startswith(test + "[") for f in failed)]


def mutate(src: Path, mutant: dict) -> str | None:
    """Apply mutant to the copy of ``src/`` at src; a message if its snippet is not found once."""
    path = src / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["snippet"])
    if count != 1:
        return f"snippet occurs {count} times in {mutant['file']}"
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]))
    return None


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        listed = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
        (Path(tmp) / "unmutated").mkdir()
        code, failed = run_tests(ROOT / "src", listed, str(Path(tmp) / "unmutated"))
        if code != 0:
            print(f"the listed tests do not pass on src/ as it is: {sorted(failed) or code}")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            workdir = Path(tmp) / mutant["name"]
            src = workdir / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            problem = mutate(src, mutant)
            if problem is None:
                code, failed = run_tests(src, mutant["tests"], str(workdir))
                alive = survivors(mutant["tests"], failed)
                if code in (4, 5):
                    problem = f"pytest could not run the listed tests (exit {code})"
                elif alive:
                    problem = f"survives {alive}"
            status = "killed" if problem is None else f"FAILS THE GATE: {problem}"
            print(f"{mutant['name']}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
            if problem is not None:
                problems.append(mutant["name"])
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
