"""Layer tracing from outside the program: timing wrappers at every lookup site.

The transship modules import each other's functions by name, so a call such
as ``std_cdf(y)`` inside ``analytic_solver`` resolves through
``analytic_solver.std_cdf``, not through ``normal_math.std_cdf``. The tracer
therefore replaces the binding of every public function (a module's
``__all__``) in every transship module that holds it, and puts every original
back on ``uninstall``.

Each wrapped call pushes a frame on a per-thread stack. Its self time is its
duration minus the union of its children's intervals; for children on the
same thread the union is the plain sum, because they cannot overlap. A span
opened on a thread whose stack is empty takes the open ``cli.main`` span as its
parent: those are the rows the CLI's thread pool computes for ``sweep``, and
they may overlap each other, so ``cli.main`` keeps its children's intervals.

``normal_math`` and ``game_model`` are leaves called ~10^5 times per op, so
their calls only add to per-thread counters; every other layer also records a
span (name, start, end, parent, op id, thread), kept in memory and written
out once by ``write_spans``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("normal_math", "game_model", "analytic_solver", "core_analysis",
          "simulation", "recourse", "cli")
LEAF_LAYERS = ("normal_math", "game_model")


class _Frame:
    __slots__ = ("span_id", "child_time", "intervals")

    def __init__(self, span_id, union):
        self.span_id = span_id
        self.child_time = 0.0
        self.intervals = [] if union else None


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Installs wrappers on the transship modules; records while ``active``."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> imported module
        self.active = False
        self.op = -1
        self.spans = []                 # (span_id, name, start, end, parent, op, thread)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._cli_frame = None
        self._ids = itertools.count(1)
        self._thread_stats = []
        self._stats_lock = threading.Lock()
        self._saved = []                # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        owner = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if callable(fn) and not isinstance(fn, type):
                    owner[id(fn)] = (layer, name, fn)
        for site, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                hit = owner.get(id(value))
                if hit is None:
                    continue
                layer, name, fn = hit
                # A leaf layer's calls to itself are internal, not layer crossings.
                if layer in LEAF_LAYERS and site == layer:
                    continue
                setattr(module, attr, self._wrap(layer, name, site, fn))
                self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- recording --------------------------------------------------------

    def _stats(self):
        local = self._local
        stats = getattr(local, "stats", None)
        if stats is None:
            stats = local.stats = defaultdict(lambda: [0, 0.0, 0.0])
            local.stack = []
            with self._stats_lock:
                self._thread_stats.append(stats)
        return stats

    def _wrap(self, layer, name, site, fn):
        key = (layer, name, site)
        record = layer not in LEAF_LAYERS
        union = (layer, name) == ("cli", "main")
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats = tracer._stats()
            stack = tracer._local.stack
            parent = stack[-1] if stack else (
                tracer._cli_frame if threading.get_ident() != tracer._main else None)
            frame = _Frame(next(tracer._ids) if record else 0, union)
            if union:
                tracer._cli_frame = frame
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if union:
                    tracer._cli_frame = None
                    child = _union_length(frame.intervals)
                else:
                    child = frame.child_time
                entry = stats[key]
                entry[0] += 1
                entry[1] += (end - start) - child
                entry[2] += end - start
                if parent is not None:
                    if parent.intervals is not None:
                        parent.intervals.append((start, end))
                    else:
                        parent.child_time += end - start
                if record:
                    tracer.spans.append((frame.span_id, f"{layer}.{name}", start, end,
                                         parent.span_id if parent is not None else 0,
                                         tracer.op, threading.get_ident()))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self):
        """(layer, name, site) -> [calls, self seconds, total seconds], all threads."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        for stats in self._thread_stats:
            for key, (calls, self_s, total_s) in list(stats.items()):
                entry = merged[key]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
        return merged

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op, thread in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op,
                                         "thread": thread}) + "\n")
