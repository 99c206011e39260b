"""Span tracing of patflow's layers from outside the package.

:class:`Tracer` replaces the public functions of each layer with wrappers
for as long as it is installed.  A wrapper records one span per call (name,
start, end, parent span) and the counts taken at that boundary, so a call
made inside another traced call becomes its child.  A layer's self time is
its spans' duration minus the part covered by their children.  Uninstalled,
the package runs its own functions again and tracing costs nothing.

The spans of the first ops are kept in memory and written out when the run
ends; every op adds to the per-layer totals.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (layer key, module, attribute): the public calls each layer is timed at.
# ``Graph.in_edges`` and ``Graph.topo_order`` are methods of the graph
# object.  Every module attribute bound to one of these functions is
# replaced, so calls through names imported into other modules are traced
# too.
TARGETS = (
    ("patterns.threshold", "patflow.patterns", "compute_fifo_thresholds"),
    ("patterns.threshold", "patflow.patterns", "compute_registered_thresholds"),
    ("exprs.eval", "patflow.exprs", "eval_expr"),
    ("graphs.build", "patflow.graphs", "build_graph"),
    ("graphs.validate", "patflow.graphs", "validate_graph"),
    ("graphs.repvec", "patflow.graphs", "compute_repetition_vector"),
    ("graphs.in_edges", "patflow.graphs", "Graph.in_edges"),
    ("graphs.topo", "patflow.graphs", "Graph.topo_order"),
    ("lowering.plan", "patflow.lowering", "lower_hof_node"),
    ("lowering.gate_table", "patflow.lowering", "edge_gate_table"),
    ("lowering.edges", "patflow.lowering", "lower_edges"),
    ("schedule.simulate", "patflow.schedule", "simulate_schedule"),
    ("schedule.timing", "patflow.schedule", "timing_report"),
    ("schedule.size", "patflow.schedule", "size_fifos"),
    ("schedule.to_json", "patflow.schedule", "schedule_to_json"),
    ("valuesim.check", "patflow.valuesim", "equivalence_check"),
    ("valuesim.clocked", "patflow.valuesim", "simulate_clocked"),
    ("valuesim.stimulus", "patflow.valuesim", "random_stimulus"),
    ("estimate", "patflow.estimate", "estimate_resources"),
    ("rtl.lower", "patflow.rtl.lower", "lower_design"),
    ("rtl.check", "patflow.rtl.ir", "check_design"),
    ("rtl.render", "patflow.rtl.emit", "render_module"),
    ("rtl.emit", "patflow.rtl.emit", "emit_verilog"),
)

LAYERS = ("patterns", "exprs", "graphs", "lowering", "schedule", "valuesim",
          "estimate", "rtl")

# Spans kept for the trace file; later ops only add to the totals.
KEEP_SPANS = 50_000


class Stat:
    """Totals of one layer key: calls, span time, self time, errors."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {key: Stat() for key, _, _ in TARGETS}
        # Counts read off return values at the schedule boundary.
        self.cycles = 0
        self.firings = 0
        self.trace_entries = 0
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, children's ns]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _find_patches(self) -> list[tuple]:
        error_type = sys.modules["patflow.errors"].PatflowError
        modules = [m for name, m in sys.modules.items()
                   if name == "patflow" or name.startswith("patflow.")]
        patches = []
        for key, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, self._wrap(key, fn, error_type)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(key, fn, error_type)
            for mod in modules:
                patches += [(mod, a, fn, wrapper) for a, v in vars(mod).items() if v is fn]
        return patches

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[list[int], int]:
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame: list[int], parent: int, name: str,
               start: int, end: int) -> int:
        """Pop ``frame``; return its self time."""
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], parent, name, start, end))
        return dur - frame[1]

    def _wrap(self, key: str, fn, error_type):
        stat = self.stats[key]
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame, parent = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                stat.errors += 1
                raise
            finally:
                end = clock()
                own = tracer._close(frame, parent, key, start, end)
                stat.calls += 1
                stat.total_ns += end - start
                stat.self_ns += own
            tracer._count(key, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, result) -> None:
        if key == "schedule.simulate":
            self.cycles += result.horizon
            self.firings += sum(len(v) for v in result.firing_starts.values())
            self.trace_entries += sum(len(v) for v in result.per_edge_occupancy.values())
        elif key == "valuesim.clocked":
            self.cycles += result.cycles
            self.firings += sum(len(v) for v in result.firing_starts.values())

    @contextmanager
    def op(self, name: str):
        """One root span around a benchmark op."""
        frame, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, parent, name, start, time.perf_counter_ns())

    # -- output ------------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        """Write the kept spans as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({**meta, "fields": ["id", "parent", "name",
                                                   "start_ns", "end_ns"],
                                "kept": len(self.spans)}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

