"""Outside-in layer trace: wrap each layer's public functions from outside.

``from .census import psi`` binds a separate name in every importing module,
so a function is replaced in every ``smoothlab`` namespace that holds it.
Every wrapped call pushes a frame; its self time is its duration minus the
durations of the wrapped calls made directly inside it (calls run on one
thread, so children never overlap).  Calls of hot functions are only
aggregated; every other call is kept as a span (name, start, end, parent
span, request id) and written out when the run ends.

Time spent in functions that are not wrapped counts as self time of the
nearest wrapped caller.
"""

import inspect
import math
import resource
import sys
import time

from smoothlab import census, cli, dickman, experiments, shifted, sieve

_MB = 1024.0  # ru_maxrss is in KiB on Linux

#: Bytes of output arrays per sieved entry: spf, lpf, phi (int64) and mu (int8).
SIEVE_BYTES_PER_ENTRY = 25


def _sieve_counts(tracer, args):
    lo, hi = int(args["lo"]), int(args["hi"])
    tracer.add("sieve.entries", hi - lo + 1)
    if (lo, hi) in tracer.windows:
        tracer.add("sieve.repeats")
    tracer.windows.add((lo, hi))


def _smooth_range_counts(tracer, args):
    tracer.add("census.smooth_range.entries", int(args["last"]) - int(args["first"]) + 1)


def _mobius_counts(tracer, args):
    top, a = math.floor(args["x"]), int(args["a"])
    if a != 0 and top > max(a, 0):
        tracer.add("shifted.mobius.moduli", top - min(a, 0))


def _build_counts(tracer, args):
    units = math.ceil(args["u_max"])
    tracer.add("dickman.build.units", units)
    tracer.add("dickman.build.knots", units * math.ceil(1.0 / args["h"]) + 1)


# (module, attribute, span name, hot, counter)
LAYER_FUNCTIONS = (
    (sieve, "sieve_range", "sieve.sieve_range", False, _sieve_counts),
    (census, "psi", "census.psi", False, None),
    (census, "psi_progression", "census.psi_progression", True, None),
    (census, "psi_coprime", "census.psi_coprime", True, None),
    (shifted, "t_exact", "shifted.t_exact", False, None),
    (shifted, "v_exact", "shifted.v_exact", False, None),
    (shifted, "t_via_mobius", "shifted.t_via_mobius", False, _mobius_counts),
    (dickman, "build_rho_table", "dickman.build_rho_table", False, _build_counts),
    (dickman, "rho", "dickman.rho", True, None),
    (experiments, "convergence_scan", "experiments.convergence_scan", False, None),
    (experiments, "granville_discrepancy", "experiments.granville_discrepancy", False, None),
    (experiments, "ft_ratio_scan", "experiments.ft_ratio_scan", False, None),
    (cli, "run", "cli.run", False, None),
)


class Tracer:
    """Spans, per-function aggregates and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, request]
        self.calls = {}  # span name -> [calls, total_s, self_s]
        self.counters = {}
        self.windows = set()
        self.sieve_rss_growth_kib = 0
        self.request = None
        self._stack = []  # frames: [span index or None, child seconds]
        self._patched = []

    def add(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, fn, name, hot, counter):
        tracer = self
        signature = inspect.signature(fn)
        is_sieve = name == "sieve.sieve_range"

        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments)
            stack = tracer._stack
            index = None
            if not hot:
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.request])
            frame = [index, 0.0]
            stack.append(frame)
            if is_sieve:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = tracer.calls.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if index is not None:
                    tracer.spans[index][1] = start
                    tracer.spans[index][2] = end
                if is_sieve:
                    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    tracer.sieve_rss_growth_kib += rss1 - rss0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every layer function in every smoothlab namespace."""
        namespaces = [m for n, m in sys.modules.items() if n == "smoothlab" or n.startswith("smoothlab.")]
        for module, attr, name, hot, counter in LAYER_FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hot, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapped)
        init = census.SmoothRange.__init__
        wrapped_init = self._wrap(init, "census.SmoothRange", False, _smooth_range_counts)
        self._patched.append((census.SmoothRange, "__init__", init))
        census.SmoothRange.__init__ = wrapped_init

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def self_s(self, *names):
        return sum(self.calls.get(n, (0, 0.0, 0.0))[2] for n in names)

    def n_calls(self, *names):
        return sum(self.calls.get(n, (0, 0.0, 0.0))[0] for n in names)

    def metrics(self):
        """Per-layer metric values (no trace.overhead_s; that needs two runs)."""
        c = self.counters
        sieve_calls = self.n_calls("sieve.sieve_range")
        sieve_self = self.self_s("sieve.sieve_range")
        entries = c.get("sieve.entries", 0)
        return {
            "sieve.calls": sieve_calls,
            "sieve.entries": entries,
            "sieve.repeat_ratio": c.get("sieve.repeats", 0) / sieve_calls if sieve_calls else 0.0,
            "sieve.self_s": sieve_self,
            "sieve.entries_per_s": entries / sieve_self if sieve_self else 0.0,
            "sieve.bytes_computed": entries * SIEVE_BYTES_PER_ENTRY,
            "sieve.rss_growth_mb": self.sieve_rss_growth_kib / _MB,
            "census.psi.calls": self.n_calls("census.psi"),
            "census.psi.self_s": self.self_s("census.psi"),
            "census.progression.calls": self.n_calls("census.psi_progression", "census.psi_coprime"),
            "census.progression.self_s": self.self_s("census.psi_progression", "census.psi_coprime"),
            "census.smooth_range.builds": self.n_calls("census.SmoothRange"),
            "census.smooth_range.entries": c.get("census.smooth_range.entries", 0),
            "census.smooth_range.self_s": self.self_s("census.SmoothRange"),
            "shifted.t_exact.self_s": self.self_s("shifted.t_exact"),
            "shifted.v_exact.self_s": self.self_s("shifted.v_exact"),
            "shifted.mobius.calls": self.n_calls("shifted.t_via_mobius"),
            "shifted.mobius.moduli": c.get("shifted.mobius.moduli", 0),
            "shifted.mobius.self_s": self.self_s("shifted.t_via_mobius"),
            "dickman.build.calls": self.n_calls("dickman.build_rho_table"),
            "dickman.build.units": c.get("dickman.build.units", 0),
            "dickman.build.knots": c.get("dickman.build.knots", 0),
            "dickman.build.self_s": self.self_s("dickman.build_rho_table"),
            "dickman.eval.calls": self.n_calls("dickman.rho"),
            "dickman.eval.self_s": self.self_s("dickman.rho"),
            "experiments.scan.self_s": self.self_s("experiments.convergence_scan"),
            "experiments.discrepancy.self_s": self.self_s("experiments.granville_discrepancy"),
            "experiments.ftratio.self_s": self.self_s("experiments.ft_ratio_scan"),
            "cli.requests": self.n_calls("cli.run"),
            "cli.self_s": self.self_s("cli.run"),
        }


#: Counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = (
    "sieve.calls",
    "sieve.entries",
    "sieve.repeat_ratio",
    "census.progression.calls",
    "shifted.mobius.moduli",
    "dickman.build.units",
    "dickman.build.knots",
)
