"""The mutation gate's list (``tests/mutants.py``) in step with the code and the tests.

``python tests/run_mutants.py`` applies every mutant and runs its tests,
which takes minutes; these checks take seconds and run with the suite.
Each snippet must occur exactly once in its file, so that the gate mutates
what the list means, and each listed test id must be collected, so that a
renamed or removed test does not leave a mutant with nothing to kill it.
"""

import os
import subprocess
import sys
from pathlib import Path

import smoothlab

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_has_its_own_name():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(names) == len(set(names))


def test_every_snippet_occurs_once_in_its_file():
    src = Path(smoothlab.__file__).resolve().parent.parent
    counts = {
        mutant["name"]: (src / mutant["file"]).read_text().count(mutant["snippet"]) for mutant in MUTANTS
    }
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_every_listed_test_is_collected():
    # An id without parameters stands for every parametrization of it.
    listed = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
    files = sorted({test.partition("::")[0] for test in listed})
    env = {**os.environ, "PYTHONPATH": str(Path(smoothlab.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    collected = set(done.stdout.splitlines())
    missing = [
        test for test in listed
        if test not in collected and not any(c.startswith(test + "[") for c in collected)
    ]
    assert missing == []
