"""In-process tracing of thermoprobe's public functions, from outside.

``Tracer.installed()`` replaces each traced function with a timing wrapper
wherever the package holds a reference to it: the defining module, every
``from .x import f`` copy in the other modules, and the values of
``cli._RUNNERS``. Nothing in ``src/`` changes, and leaving the context puts
every original back.

Each thread keeps its own span stack, so spans opened by the CLI's thread
pool nest only under spans of the same thread. A span's self time is its
duration minus the durations of its direct children; times are integer
nanoseconds, so self times are never negative and the self times of one
thread's spans add up exactly to the durations of its top-level spans. Spans
are kept in memory and aggregated after each traced call returns.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Traced functions per module of the package, named as in the per-layer metrics.
TARGETS = {
    "cli": ("main", "build_run_config", "cmd_equilibrium_scan", "cmd_optimal_gap",
            "cmd_hessian_check", "cmd_transient_scan", "cmd_limits", "render_rows"),
    "dynamics": ("transient_scan", "qfi_transient", "evolve_nlevel", "evolve_qubit"),
    "gaussian": ("qfi_harmonic_transient", "qfi_harmonic_equilibrium"),
    "equilibrium": ("qfi_equilibrium_scan", "qfi_effective_two_level", "optimal_gap",
                    "hessian_certificate"),
    "spectra": ("thermalize",),
    "numerics": ("central_diff", "eigenvalues_symmetric", "find_root"),
}

# Work counted at a span boundary besides the call itself.
COUNTERS = {
    "cli.render_rows": ("rows", "bytes"),
    "numerics.central_diff": ("evals",),
    "numerics.find_root": ("evals",),
}

NAME, REQUEST, THREAD, START, END, CHILD_NS, COUNTS = range(7)


def _counting_first_argument(args, kwargs, counts):
    """Replace the function argument ``f`` so that its evaluations are counted."""
    f = args[0] if args else kwargs["f"]

    def counted(*a, **k):
        counts["evals"] += 1
        return f(*a, **k)

    if args:
        return (counted,) + args[1:], kwargs
    return args, {**kwargs, "f": counted}


class Tracer:
    """Spans of traced calls: [name, request, thread, start, end, child ns, counts]."""

    def __init__(self):
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished = []  # one list of closed spans per thread

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # open-span stack, closed spans
            with self._lock:
                self._finished.append(state[1])
        return state

    def wrap(self, name, fn):
        """A wrapper of ``fn`` that records one span named ``name`` per call."""
        counters = COUNTERS.get(name, ())
        counts_args = "evals" in counters
        counts_output = "rows" in counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, closed = self._thread_state()
            counts = dict.fromkeys(counters, 0) if counters else None
            if counts_args:
                args, kwargs = _counting_first_argument(args, kwargs, counts)
            span = [name, self.request, threading.get_ident(), 0, 0, 0, counts]
            stack.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][CHILD_NS] += span[END] - span[START]
                closed.append(span)
            if counts_output:
                counts["rows"] = len(args[0])
                counts["bytes"] = len(result.encode())
            return result

        return traced

    def take_spans(self):
        """Remove and return every closed span, from all threads."""
        with self._lock:
            spans = [span for closed in self._finished for span in closed]
            for closed in self._finished:
                closed.clear()
        return spans

    @contextmanager
    def installed(self, package="thermoprobe"):
        """Rebind every reference the package holds to a traced function."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))}
        wrappers = {}
        for short, names in TARGETS.items():
            home = modules.get(f"{package}.{short}")
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        undo = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    undo.append((vars(mod), attr, value))
        runners = getattr(modules.get(f"{package}.cli"), "_RUNNERS", {})
        for key, value in list(runners.items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                runners[key] = wrappers[id(value)][1]
                undo.append((runners, key, value))
        try:
            yield self
        finally:
            for namespace, key, value in undo:
                namespace[key] = value


def self_ns(span):
    return span[END] - span[START] - span[CHILD_NS]


def aggregate(spans):
    """Per traced function: calls, total and self nanoseconds, and counters."""
    table = defaultdict(lambda: defaultdict(int))
    for span in spans:
        row = table[span[NAME]]
        row["calls"] += 1
        row["total_ns"] += span[END] - span[START]
        row["self_ns"] += self_ns(span)
        for key, value in (span[COUNTS] or {}).items():
            row[key] += value
    return table


def metric_names():
    """Every traced function with its per-layer metric suffixes."""
    for short, names in TARGETS.items():
        for name in names:
            full = f"{short}.{name}"
            yield full, ("calls", "total_s", "self_s") + COUNTERS.get(full, ())
