"""The split of a long sieved T/V pass across processes (``sieve._reduce_pass``).

A sieved pass of at least twice ``_SPLIT_ENTRIES`` n is cut at segment
boundaries into one part per CPU; the parent forks one child per part past
the first, reduces the first itself and adds the exact sums of the others.
Here a small threshold and a patched CPU set force the split on short
passes, and the rows of ``_shifted_totals`` and ``_v_parts`` must be those of
the same pass in one process, bit for bit.  The parts must fall where
``_part_ends`` says, and no child may outlive its pass: not when the
consumer raises or the parent is interrupted, not when a child fails, and
not when the parent is gone.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothlab
from smoothlab import SmoothlabError, sieve
from smoothlab.shifted import _shifted_totals, _v_parts

from conftest import forced_route, stream_segment

SEGMENT = sieve.STREAM_SEGMENT


@contextmanager
def split_into(cpus: int, entries: int = 1):
    """Context manager: passes of at least twice ``entries`` n split over ``cpus`` CPUs.

    It yields the list of the pids the parent forks.  ``patch.object``, so
    that it works inside hypothesis tests.
    """
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with patch.object(sieve, "_SPLIT_ENTRIES", entries), \
            patch.object(os, "sched_getaffinity", lambda _pid: set(range(cpus))), \
            patch.object(os, "fork", counted):
        yield forks


def assert_no_child():
    """No child of this process is left, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _hex_rows(rows):
    return [[(psi_value, t.hex(), v.hex()) for psi_value, t, v in row] for row in rows]


@st.composite
def split_cases(draw):
    """(xs, y, shifts, segment, cpus): a sieved pass cut into 2 or 3 parts, its cuts on part ends.

    Below 2^31 the shifts take both signs; near it every shift is close
    below 2^31, so the pass (min a, max x] is short and its parts cross 2^31.
    """
    segment, cpus = draw(st.integers(40, 400)), draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        base, y = 2**31 - 2 * segment, draw(st.sampled_from([30, 1e3]))
        shifts = draw(st.lists(st.integers(base, base + segment), min_size=1, max_size=3, unique=True))
        hi = base + draw(st.integers(4 * segment, 8 * segment))
    else:
        y = draw(st.sampled_from([7, 30, 1e3, 1e5, math.inf]))
        shifts = draw(st.lists(st.integers(-50, 50).filter(bool), min_size=1, max_size=3, unique=True))
        hi = draw(st.integers(3 * segment, 12 * segment))
    lo = min(max(a, 0) for a in shifts)
    with stream_segment(segment), split_into(cpus):
        ends = sieve._part_ends(lo, hi, shifts)
    cuts = draw(st.lists(st.sampled_from(ends[1:-1]), max_size=2))
    cuts += draw(st.lists(st.integers(1, hi - 1), max_size=2))
    xs = sorted({*cuts, hi})
    if draw(st.booleans()):
        xs[-1] += 0.5  # a fractional last x cuts at its floor
    return xs, y, shifts, segment, cpus


@settings(max_examples=25, deadline=None)
@given(split_cases())
@example(([600, 1200], 1e5, [1, -2], 100, 3))
@example(([2**31 + 1000], 30, [2**31 - 200, 2**31 - 150], 100, 2))
def test_a_split_pass_gives_the_rows_of_one_process(case):
    xs, y, shifts, segment, cpus = case
    with stream_segment(segment), forced_route("sieve"):
        serial = _hex_rows(_shifted_totals(xs, y, shifts))
        serial_v = [_v_parts(xs[-1], y, a) for a in shifts]
        with split_into(cpus) as forks:
            split = _hex_rows(_shifted_totals(xs, y, shifts))
            split_v = [_v_parts(xs[-1], y, a) for a in shifts]
    assert split == serial
    assert [(v.hex(), psi_value) for v, psi_value in split_v] == [
        (v.hex(), psi_value) for v, psi_value in serial_v
    ]
    # Each of the 1 + len(shifts) passes forked one child per part past the first.
    assert len(forks) == (1 + len(shifts)) * (cpus - 1)
    assert_no_child()


@pytest.mark.parametrize(
    "lo, hi, cpus, want",
    [
        pytest.param(0, 6 * SEGMENT - 1, 2, [0, 6 * SEGMENT - 1], id="5-segments-and-a-bit-alone"),
        pytest.param(0, 6 * SEGMENT, 2, [0, 3 * SEGMENT, 6 * SEGMENT], id="6-segments-in-2"),
        pytest.param(0, 6 * SEGMENT, 1, [0, 6 * SEGMENT], id="one-cpu"),
        pytest.param(0, 9 * SEGMENT - 5, 2, [0, 4 * SEGMENT, 9 * SEGMENT - 5], id="9-segments-in-2"),
        pytest.param(
            0, 9 * SEGMENT, 3, [0, 3 * SEGMENT, 6 * SEGMENT, 9 * SEGMENT], id="9-segments-in-3",
        ),
        pytest.param(0, 9 * SEGMENT - 5, 4, [0, 4 * SEGMENT, 9 * SEGMENT - 5], id="no-part-below-3"),
        pytest.param(
            7, 20 * SEGMENT + 7, 2, [7, 10 * SEGMENT + 7, 20 * SEGMENT + 7], id="from-a-shift",
        ),
    ],
)
def test_the_parts_are_cut_at_segment_boundaries(lo, hi, cpus, want):
    # One part per CPU, none of fewer than _SPLIT_ENTRIES = 3 segments, as
    # many segments in each as the count allows, the longer parts last.
    assert sieve._SPLIT_ENTRIES == 3 * SEGMENT
    with patch.object(os, "sched_getaffinity", lambda _pid: set(range(cpus))):
        ends = sieve._part_ends(lo, hi, [max(lo, 1)])
    assert ends == want
    segments = sieve._PassContext(lo + 1, hi).segments()
    assert set(ends[1:-1]) <= {s - 1 for s, _e in segments}


def test_no_part_is_shorter_than_a_segment():
    # With a threshold of one n, a pass of 2 segments has 2 parts on 3 CPUs.
    with stream_segment(100), split_into(3):
        assert sieve._part_ends(0, 150, [1]) == [0, 100, 150]


def _slow_children(parent: int, raise_in_parent):
    """A reducer whose children take a minute over their first window, while the parent raises."""

    def reduce(windows):
        for _window in windows:
            if os.getpid() == parent:
                raise_in_parent()
            time.sleep(60)
        return 0

    return reduce


def _interrupt():
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(5)  # the KeyboardInterrupt comes before this ends


def _fail():
    raise ValueError("the consumer stops")


@pytest.mark.parametrize("raise_in_parent, error", [(_fail, ValueError), (_interrupt, KeyboardInterrupt)])
def test_a_pass_that_raises_in_the_parent_leaves_no_child(raise_in_parent, error):
    reduce = _slow_children(os.getpid(), raise_in_parent)
    start = time.monotonic()
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with stream_segment(1000), split_into(3) as forks, pytest.raises(error):
            sieve._reduce_pass(0, 30_000, 1e5, [1], reduce)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert len(forks) == 2
    assert time.monotonic() - start < 30  # the children were killed, not waited for
    assert_no_child()


def test_a_pass_interrupted_while_it_reads_a_child_leaves_no_child():
    parent = os.getpid()

    def reduce(windows):
        if os.getpid() != parent:
            time.sleep(60)
        return sum(1 for _window in windows)

    def interrupt(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with stream_segment(1000), split_into(2), pytest.raises(KeyboardInterrupt):
            sieve._reduce_pass(0, 20_000, 1e5, [1], reduce)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child()


@pytest.mark.parametrize("failure", ["raises", "killed", "unpicklable"])
def test_a_child_that_fails_makes_the_pass_raise(failure):
    parent = os.getpid()

    def reduce(windows):
        count = sum(idx.size for _s, _e, [(idx, _phi)] in windows)
        if os.getpid() != parent and failure == "raises":
            raise ValueError("a child fails")
        if os.getpid() != parent and failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != parent and failure == "unpicklable":
            return lambda: count
        return count

    with stream_segment(1000), split_into(3) as forks, pytest.raises(SmoothlabError, match="exited with"):
        sieve._reduce_pass(0, 30_000, 1e5, [1], reduce)
    assert len(forks) == 2
    assert_no_child()


def test_a_part_stops_between_segments_once_its_parent_is_gone(monkeypatch):
    # getppid() gives the parent's pid for the first segment and init's after it.
    answers = iter([os.getpid(), 1])
    monkeypatch.setattr(os, "getppid", lambda: next(answers, 1))
    seen = []
    with stream_segment(1000), pytest.raises(SmoothlabError, match="is gone"):
        for s, e, _rows in sieve._sieved_pass(0, 5000, 1e5, [1], os.getpid()):
            seen.append((s, e))
    assert seen and max(e for _s, e in seen) == 1000


def _state(pid: int) -> str:
    """The state letter of a process in /proc, or "" once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return ""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_child_exits_once_its_parent_is_killed(tmp_path):
    # The child works slowly for about 20 s; killed, its parent leaves it to
    # notice alone, which it does between two segments.
    note = tmp_path / "child"
    middle = os.fork()
    if middle == 0:
        status = 1
        try:
            me = os.getpid()

            def reduce(windows):
                if os.getpid() == me:
                    time.sleep(60)
                note.write_text(str(os.getpid()))
                for _window in windows:
                    time.sleep(0.04)
                return 0

            sieve.STREAM_SEGMENT, sieve._SPLIT_ENTRIES = 100, 1
            os.sched_getaffinity = lambda _pid: {0, 1}
            sieve._reduce_pass(0, 100_000, 1e5, [1], reduce)
            status = 0
        finally:
            os._exit(status)
    try:
        deadline = time.monotonic() + 30
        while not note.exists() or not note.read_text():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        child = int(note.read_text())
    finally:
        os.kill(middle, signal.SIGKILL)
        os.waitpid(middle, 0)
    deadline = time.monotonic() + 5
    while _state(child) not in ("", "Z"):
        assert time.monotonic() < deadline, "the child outlived its parent"
        time.sleep(0.01)


def test_a_process_with_a_second_thread_runs_the_pass_alone():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with stream_segment(100), split_into(2) as forks:
            assert sieve._part_ends(0, 10_000, [1]) == [0, 10_000]
            rows = _hex_rows(_shifted_totals([10_000], 1e5, [1, -1]))
    finally:
        stop.set()
        thread.join()
    assert forks == []
    with stream_segment(100):
        assert rows == _hex_rows(_shifted_totals([10_000], 1e5, [1, -1]))


def test_a_generated_pass_is_not_split():
    with split_into(2) as forks:
        _shifted_totals([1e6], 30, [1])
    assert forks == []


def test_a_child_of_a_split_pass_peaks_below_its_parent():
    # A child shares its parent's pages and adds its part's strip buffers
    # and windows, a few MiB; its peak RSS stays below the parent's (27
    # against 34 MB on the 2-core reference box) for a pass of 18 segments.
    script = (
        "import os, resource\n"
        "os.sched_getaffinity = lambda _pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from smoothlab import shifted\n"
        "shifted._shifted_totals([4.6e6], 1e5, [1, 2, -1])\n"
        "print(len(forks), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
        " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = Path(smoothlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    forks, parent_kib, child_kib = map(int, done.stdout.split())
    assert forks == 1
    assert child_kib <= parent_kib
