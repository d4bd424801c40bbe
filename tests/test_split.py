"""The split of a long sieved T/V pass across processes (``sieve._reduce_pass``).

A sieved pass of at least twice ``_SPLIT_ENTRIES`` n is cut at segment
boundaries into one part per CPU; the parent forks one child per part past
the first, reduces the first itself and adds the exact sums of the others.
Here a small threshold and a patched CPU set force the split on short
passes, and the results of every consumer of the pass (``_shifted_totals``,
``_v_parts``, ``t_exact``, ``v_via_abel`` and the Moebius split) must be
those of the same pass in one process, bit for bit.  The parts must fall where
``_part_ends`` says, and no child may outlive its pass: not when the
consumer raises or the parent is interrupted, not when a child fails, and
not when the parent is gone.  A part whose process or pipe cannot be made
is reduced in the parent, and a child's error comes back with its text.
"""

import contextlib
import errno
import io
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
from smoothlab import SmoothlabError, cli, sieve
from smoothlab.shifted import _shifted_totals, _v_parts, t_exact, t_via_mobius, v_via_abel

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
        ends = sieve._part_ends(lo, hi)
    cuts = draw(st.lists(st.sampled_from(ends[1:-1]), max_size=2))
    cuts += draw(st.lists(st.integers(1, hi - 1), max_size=2))
    xs = sorted({*cuts, hi})
    if draw(st.booleans()):
        xs[-1] += 0.5  # a fractional last x cuts at its floor
    return xs, y, shifts, segment, cpus


def _consumers(xs, y, shifts, delta):
    """The bits of every consumer of the pass up to xs[-1].

    The rows of ``_shifted_totals``, then for each shift ``_v_parts``,
    ``t_exact``, ``v_via_abel`` and the Moebius split (sigma1, sigma2, t, count).
    """
    x = xs[-1]
    rows = _hex_rows(_shifted_totals(xs, y, shifts))
    for a in shifts:
        v, psi_value = _v_parts(x, y, a)
        split = t_via_mobius(x, y, a, delta)
        rows.append([
            (v.hex(), psi_value), t_exact(x, y, a).hex(), v_via_abel(x, y, a).hex(),
            (split.sigma1.hex(), split.sigma2.hex(), split.t.hex(), split.count),
        ])
    return rows


@settings(max_examples=25, deadline=None)
@given(split_cases(), st.sampled_from([1, 7, 100, math.inf]))
@example(([600, 1200], 1e5, [1, -2], 100, 3), 7)
@example(([2**31 + 1000], 30, [2**31 - 200, 2**31 - 150], 100, 2), 100)
# The child's part (600, 1200] marks the k = n + 2 in (602, 1202], which the
# parent's part lacks, so the split's counts need the marks it sends back.
@example(([1200], 1e5, [-2], 100, 2), 100)
def test_a_split_pass_gives_the_rows_of_one_process(case, delta):
    xs, y, shifts, segment, cpus = case
    with stream_segment(segment), forced_route("sieve"):
        serial = _consumers(xs, y, shifts, delta)
        with split_into(cpus) as forks:
            split = _consumers(xs, y, shifts, delta)
            # The pass of every shift at once, then four of each shift alone.
            passes = [shifts] + [[a] for a in shifts for _consumer in range(4)]
            ends = [sieve._part_ends(min(max(a, 0) for a in s), math.floor(xs[-1])) for s in passes]
    assert split == serial
    # Each pass forked one child per part past the first.
    assert len(forks) == sum(len(part_ends) - 2 for part_ends in ends)
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
        ends = sieve._part_ends(lo, hi)
    assert ends == want
    segments = sieve._PassContext(lo + 1, hi).segments()
    assert set(ends[1:-1]) <= {s - 1 for s, _e in segments}


def test_no_part_is_shorter_than_a_segment():
    # With a threshold of one n, a pass of 2 segments has 2 parts on 3 CPUs.
    with stream_segment(100), split_into(3):
        assert sieve._part_ends(0, 150) == [0, 100, 150]


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


@pytest.mark.parametrize(
    "failure, message",
    [
        pytest.param("raises", r"exited with 1: ValueError: a child fails$", id="raises"),
        pytest.param("out-of-memory", r"exited with 1: MemoryError: no room$", id="out-of-memory"),
        pytest.param("killed", rf"exited with -{signal.SIGKILL}$", id="killed"),
        pytest.param("unpicklable", r"exited with 1: \w+Error: .*pickle", id="unpicklable"),
    ],
)
def test_a_child_that_fails_makes_the_pass_raise(failure, message):
    parent = os.getpid()

    def reduce(windows):
        count = sum(idx.size for _s, _e, [(idx, _phi)] in windows)
        if os.getpid() != parent and failure == "raises":
            raise ValueError("a child fails")
        if os.getpid() != parent and failure == "out-of-memory":
            raise MemoryError("no room")
        if os.getpid() != parent and failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != parent and failure == "unpicklable":
            return lambda: count
        return count

    with stream_segment(1000), split_into(3) as forks, pytest.raises(SmoothlabError, match=message):
        sieve._reduce_pass(0, 30_000, 1e5, [1], reduce)
    assert len(forks) == 2
    assert_no_child()


@pytest.mark.parametrize(
    "name, error",
    [("fork", BlockingIOError(errno.EAGAIN, "no process")), ("pipe", OSError(errno.EMFILE, "no file"))],
    ids=["fork", "pipe"],
)
def test_a_part_whose_process_cannot_be_made_is_reduced_in_the_parent(name, error):
    # A failed fork (EAGAIN under a process limit) or pipe (EMFILE) once
    # refused a request that one process answers; the patch starts no process.
    def fail():
        raise error

    argv = ["tsum", "--x", "3000", "--y", "1e5", "--a", "6"]
    with stream_segment(100):
        serial = _hex_rows(_shifted_totals([1200, 3000], 1e5, [6, -1]))
        serial_v = _v_parts(3000, 1e5, -1)[0].hex()
        line = _cli_line(argv)
        with split_into(3), patch.object(os, name, fail):
            assert sieve._part_ends(0, 3000) == [0, 1000, 2000, 3000]
            assert _hex_rows(_shifted_totals([1200, 3000], 1e5, [6, -1])) == serial
            assert _v_parts(3000, 1e5, -1)[0].hex() == serial_v
            assert _cli_line(argv) == line
    assert_no_child()


def _cli_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.run(argv) == 0, err.getvalue()
    return out.getvalue()


def test_a_child_sends_its_error_back_and_exits_with_1(monkeypatch):
    # The child's side, in this process: os._exit is patched to stop here.
    class Exited(Exception):
        pass

    def exit_(status):
        raise Exited(status)

    def reduce(windows):
        raise IndexError("index 5 is out of bounds")

    monkeypatch.setattr(os, "_exit", exit_)
    read, write = os.pipe()
    with pytest.raises(Exited) as exited:
        sieve._reduce_in_child(write, os.getpid(), 0, 3000, 1e5, [1], reduce)
    with os.fdopen(read, "rb") as pipe:
        assert pipe.read() == b"IndexError: index 5 is out of bounds"
    assert exited.value.args == (1,)


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
            assert sieve._part_ends(0, 10_000) == [0, 10_000]
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


@pytest.mark.parametrize(
    "call, held_kib",
    [
        pytest.param("shifted._shifted_totals([4.6e6], 1e5, [1, 2, -1])", 0, id="shifted-totals"),
        pytest.param(
            'cli.run(["tsum", "--x", "16777217", "--y", "1e9", "--a", "1", "--delta", "10"])',
            16_384,
            id="mobius-split",
        ),
    ],
)
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_child_of_a_split_pass_peaks_below_its_parent(call, held_kib):
    # A child shares its parent's pages and adds its part's strip buffers
    # and windows, a few MiB; its peak RSS stays below the parent's (27
    # against 34 MB on the 2-core reference box) for a pass of 18 segments.
    # The Moebius split's parent alone holds the 16 MiB indicator of its
    # 2^24 moduli, made after the pass: a child that marked its copy of it
    # peaked at 38.7-39.8 MB against a parent at 53.1-53.3 MB, and one that
    # sends back its marks packed peaks at 29.2-29.3 MB against 54.6-54.8 MB.
    # The parent's peak is VmHWM: its RUSAGE_SELF ru_maxrss keeps the peak
    # of the process that started it (the test run's, some 58 MB) across exec.
    script = (
        "import contextlib, io, os, resource\n"
        "os.sched_getaffinity = lambda _pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from smoothlab import cli, shifted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        "[peak] = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(len(forks), peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = Path(smoothlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    forks, parent_kib, child_kib = map(int, done.stdout.split())
    assert forks == 1
    assert child_kib + held_kib <= parent_kib
