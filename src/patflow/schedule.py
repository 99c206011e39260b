"""Self-timed (ASAP) cycle-accurate scheduling and FIFO sizing.

One machine steps the graph cycle by cycle on token counts alone.  Firing
decisions never read token values, so the schedule view and the value
simulator (:mod:`patflow.valuesim`) both run it: the value simulator then
replays concrete values along the firings and occupancy traces it
recorded, and the two always agree on every firing decision.

Timing semantics
----------------
* Nodes are visited in topological order within a cycle, so a consumer can
  observe a producer firing that starts in the same cycle.
* Tokens leaving a *source* port are visible in the cycle they are supplied
  (the environment drives them combinationally into the input FIFO); tokens
  leaving a *compute* node sit behind its output register and become visible
  at the start of the next cycle.  Each edge is gated by the matching
  threshold table (see :func:`patflow.lowering.edge_gate_table`).
* An idle node starts a firing exactly when every input edge held, at the
  start of the cycle, at least the threshold indexed by its producer's
  current phase (or the idle entry when the producer is between firings).
  Once started, a firing runs to completion, one phase per cycle; the
  thresholds guarantee it never stalls.
* Sources and input-less compute nodes fire back to back while they still
  owe firings for the requested iteration count.
* Edges into sinks are plain wiring: tokens are delivered in the cycle they
  are produced.

Occupancy traces record each FIFO at the moment its consumer samples it
(after the producer's same-cycle supply, before consumption), which is the
quantity the thresholds gate on.

The machine compiles these rules into step tables (see :class:`Machine`):
per node its last phase, its input edges with their gate entries and its
output edges with the cycle their tokens land in.  A source's same-cycle
supply is folded into the gate entry of the phase that supplied it, so no
cycle-start snapshot of the FIFOs is taken.  A run is complete when no node
owes a firing or is mid-firing; the machine keeps a count of those nodes,
so the test costs O(1) per cycle.

Everything the tables are built from (topological order, adjacency,
repetition vector and gate tables) comes from the graph's
:class:`~patflow.prepared.PreparedGraph`, computed once per graph; a new
machine only applies ``gate_offset`` and allocates run-time state.

Periodic steady state
---------------------
Self-timed execution of a consistent graph turns periodic after a short
transient, so long runs do not step every cycle.  At a cycle boundary the
machine's state is each node's phase plus each buffered edge's occupancy
(no tokens are in flight then); the next cycle depends on nothing else
except which nodes still owe firings.  The machine probes that state each
time an *anchor*, a node owing the fewest firings, completes a firing, and
finds the first repeat with one saved state (Brent's cycle detection).  A
repeat between cycles ``t1`` and ``t2`` is a period ``P = t2 - t1`` in
which node ``i`` completes ``d_i`` firings.  The window already passed
every gate, overflow and deadlock check, so it is replayed ``K`` times
without stepping: the traces repeat their window and the starts shift by
multiples of ``P``.  ``K`` stops short of the cycle budget and of any
node's last owed firing::

    K = min((limit - t2) // P, min over d_i > 0 of (owed_i - fired_i - 1) // d_i)

with ``fired_i`` counted at ``t2``; the rest of the run, the drain, is
stepped as before.  Outputs, errors and their messages are identical to a
fully stepped run.  The replayed cycles hold no occupancy the stepped ones
did not, so the FIFO peaks (:attr:`Schedule.fifo_peaks`) come from the
stepped cycles alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

from .errors import Deadlock, FifoOverflow, HorizonExceeded
from .graphs import Graph, NodeKind

__all__ = [
    "Schedule",
    "TimingReport",
    "simulate_schedule",
    "timing_report",
    "size_fifos",
    "render_gantt",
    "schedule_to_json",
]


@dataclass
class Schedule:
    """Result of a cycle-accurate run on token counts."""

    graph: str
    iterations: int
    firing_starts: dict[str, list[int]]
    horizon: int
    per_edge_occupancy: dict[str, list[int]]
    last_sink_cycle: int | None
    fifo_peaks: dict[str, int]

    @property
    def first_start(self) -> int | None:
        starts = [v[0] for v in self.firing_starts.values() if v]
        return min(starts) if starts else None


@dataclass(frozen=True)
class TimingReport:
    """Latency/throughput summary of a schedule."""

    latency_cycles: int
    throughput: float
    fifo_capacities: dict[str, int]


# ---------------------------------------------------------------------------
# The shared machine

# Where an out-edge puts a phase's tokens: a sink receives them at once, a
# FIFO fed by a source counts them in the same cycle, and a FIFO fed by a
# compute node counts them from the next cycle, behind the output register.
_TO_SINK, _SAME_CYCLE, _NEXT_CYCLE = range(3)


class _NodeRT:
    """Run-time state of one non-sink node.

    ``cur`` is the phase the node stepped in its latest visit, or -1 if it
    did not step; gate tables are indexed with it, so -1 picks the idle
    entry.
    """

    __slots__ = ("spec", "owed", "fired", "cur", "starts")

    def __init__(self, spec, owed: int, starts: list[int]):
        self.spec = spec
        self.owed = owed
        self.fired = 0
        self.cur = -1
        self.starts = starts


class _EdgeRT:
    """Run-time state of one buffered edge (an edge into a non-sink node)."""

    __slots__ = ("spec", "occupancy", "trace", "underflow", "peak")

    def __init__(self, spec):
        self.spec = spec
        self.occupancy = 0
        self.trace: list[int] = []
        self.underflow = False
        self.peak = 0  # the trace's maximum before a skip


# The earliest repeat shows at the anchor's second completed firing, and a
# skip must then leave the anchor's last owed firing to the drain.
_MIN_PROBE_OWED = 4


class Machine:
    """Cycle-stepped execution of a graph on token counts.

    ``__init__`` builds step tables from the graph's prepared view, one row
    per non-sink node in topological order: the node's run-time state, its
    last phase, its input edges as ``(edge, producer, gate, cp phases)`` and
    its output edges as ``(pp phases, kind, destination)``.  Each gate has
    one entry per producer phase plus the idle entry last, with
    ``gate_offset`` applied and clamped at 0.  :meth:`run` is a single loop
    over these rows.  Completion is a count of the nodes that still owe
    firings, so testing it costs O(1) per cycle.

    :meth:`run` also skips the periodic steady state (see the module
    docstring).  A probe costs O(1) per firing the anchor completes: the
    loop compares one edge's occupancy with its value in the saved state,
    and builds the full O(V+E) state only when they match, or when the
    probe count reaches a power of two and the state is saved anew.  An
    anchor owing fewer than ``_MIN_PROBE_OWED`` firings cannot leave room
    for a skip and is not probed at all.  ``skipped`` counts the cycles
    replayed rather than stepped.

    A run records firing starts and per-cycle occupancy traces; token
    values play no part in any firing decision, so
    :func:`patflow.valuesim.simulate_clocked` derives them afterwards from
    these records.

    Not part of the public API surface; use :func:`simulate_schedule` or
    :func:`patflow.valuesim.simulate_clocked`.
    """

    def __init__(
        self,
        g: Graph,
        iterations: int,
        *,
        gate_offset: int = 0,
        horizon: int | None = None,
        capacities: dict[str, int] | None = None,
    ):
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        prep = g.prepared
        reps = prep.reps

        self.starts: dict[str, list[int]] = {
            n: [] for n in g.nodes if g.nodes[n].kind is not NodeKind.SINK
        }
        self.nodes: dict[str, _NodeRT] = {}
        for name in prep.topo:
            spec = g.nodes[name]
            if spec.kind is not NodeKind.SINK:
                self.nodes[name] = _NodeRT(spec, reps[name] * iterations, self.starts[name])

        gates = prep.gates
        self.edges: dict[str, _EdgeRT] = {
            e.id: _EdgeRT(e) for e in g.edges if g.nodes[e.consumer].kind is not NodeKind.SINK
        }

        self.steps = []
        for name, nrt in self.nodes.items():
            ins = []
            for e in prep.ins[name]:
                # The gate reads the occupancy the cycle started with.  A
                # source's same-cycle supply is already counted when the
                # consumer looks, so it is added to the entry of the phase
                # that supplied it.
                entries = gates[e.id].entries
                if g.nodes[e.producer].kind is NodeKind.SOURCE:
                    supplied = e.pp.phases + (0,)
                else:
                    supplied = (0,) * len(entries)
                gate = tuple(
                    max(0, x + gate_offset) + s for x, s in zip(entries, supplied)
                )
                ins.append((self.edges[e.id], self.nodes[e.producer], gate, e.cp.phases))
            outs = []
            for port in range(len(nrt.spec.patterns.outputs)):
                for e in prep.outs.get((name, port), ()):
                    if g.nodes[e.consumer].kind is NodeKind.SINK:
                        outs.append((e.pp.phases, _TO_SINK, None))
                    else:
                        kind = _SAME_CYCLE if nrt.spec.kind is NodeKind.SOURCE else _NEXT_CYCLE
                        outs.append((e.pp.phases, kind, self.edges[e.id]))
            self.steps.append((nrt, nrt.spec.length - 1, tuple(ins), tuple(outs)))
        caps = capacities or {}
        self.checked = [
            (ert, caps[eid]) for eid, ert in self.edges.items() if caps.get(eid) is not None
        ]

        if horizon is None:
            work = sum(
                reps[n.name] * max(1, n.length)
                for n in g.nodes.values()
                if n.kind is not NodeKind.SINK
            )
            horizon = 4 * iterations * work + 8
        self.horizon_limit = horizon

        self.last_sink_cycle: int | None = None
        self.cycles = 0
        self.skipped = 0
        self._saved: tuple | None = None
        # Where stepping resumed after a skip; the trace before it was
        # scanned for its peak when the skip was made.
        self._resume = 0

    # -- stepping ------------------------------------------------------------

    def run(self) -> "Machine":
        limit = self.horizon_limit
        steps = self.steps
        checked = self.checked
        # Nodes that still owe firings or are mid-firing; the run is complete
        # when none are left.  Tokens from compute nodes wait in ``pending``
        # until the end of the cycle, so none are in flight at this test.
        remaining = sum(1 for nrt in self.nodes.values() if nrt.owed)
        pending: list[tuple[_EdgeRT, int]] = []
        # Probe n comes after the anchor's n-th completed firing.  Among the
        # nodes owing the fewest firings the anchor is the last in
        # topological order, which fires at the pace of the graph rather
        # than at that of its own inputs.  A node that never fires stands in
        # when no skip could fit.
        anchor = min(reversed(self.nodes.values()), key=lambda nrt: nrt.owed, default=None)
        if anchor is None or anchor.owed < _MIN_PROBE_OWED:
            anchor = _NodeRT(None, 0, [])
        seen = 0
        save_at = 1  # Brent: the state is saved anew at powers of two
        fp = next(iter(self.edges.values()), None) or _EdgeRT(None)
        fp_saved = None  # ``fp``'s occupancy in the saved state
        t = 0
        while remaining:
            if t >= limit:
                raise HorizonExceeded(f"no completion within {limit} cycles")
            stepped = False
            for nrt, last, ins, outs in steps:
                for ert, _, _, _ in ins:
                    ert.trace.append(ert.occupancy)
                ph = nrt.cur + 1
                if not 0 < ph <= last:
                    # Idle: start a firing if one is owed and every gate is
                    # open.  Producers come first in topological order, so
                    # ``prt.cur`` already holds their phase in this cycle.
                    nrt.cur = ph = -1
                    if nrt.fired == nrt.owed:
                        continue
                    for ert, prt, gate, _ in ins:
                        if ert.occupancy < gate[prt.cur]:
                            break
                    else:
                        ph = 0
                    if ph < 0:
                        continue
                    nrt.starts.append(t)
                nrt.cur = ph
                stepped = True

                for ert, _, _, cp in ins:
                    c = cp[ph]
                    if not c:
                        continue
                    occ = ert.occupancy
                    if occ >= c:
                        ert.occupancy = occ - c
                    else:
                        ert.occupancy = 0
                        ert.underflow = True

                for pp, kind, dest in outs:
                    c = pp[ph]
                    if not c:
                        continue
                    if kind == _NEXT_CYCLE:
                        pending.append((dest, c))
                    elif kind == _SAME_CYCLE:
                        dest.occupancy += c
                    else:
                        self.last_sink_cycle = t

                if ph >= last:
                    nrt.fired += 1
                    if nrt.fired == nrt.owed:
                        remaining -= 1

            for ert, c in pending:
                ert.occupancy += c
            pending.clear()
            # The consumer's sample (what ``size_fifos`` sizes) already holds
            # a source's tokens of this cycle, before the consumer takes its
            # share; tokens written at the end of the cycle are in
            # ``occupancy``.
            for ert, cap in checked:
                held = max(ert.trace[-1], ert.occupancy)
                if held > cap:
                    raise FifoOverflow(
                        f"edge '{ert.spec.id}' holds {held} tokens, sized for {cap}"
                    )
            if not stepped:
                blocked = [n for n, rt in self.nodes.items() if rt.fired < rt.owed]
                occ = {eid: e.occupancy for eid, e in self.edges.items()}
                raise Deadlock(
                    f"no progress at cycle {t}; waiting nodes {blocked}, occupancy {occ}"
                )
            t += 1
            if anchor.fired != seen:
                seen = anchor.fired
                if seen == save_at or fp.occupancy == fp_saved:
                    skip = self._probe(t, seen == save_at)
                    if skip is not None:
                        t += skip
                        anchor, seen = _NodeRT(None, 0, []), 0
                    elif seen == save_at:
                        save_at *= 2
                        fp_saved = fp.occupancy
        self.cycles = t
        return self

    def _probe(self, t: int, save: bool) -> int | None:
        """Compare the state at cycle ``t`` with the saved one.

        On a repeat, makes the skip and returns the cycles skipped, 0 when
        no whole window fits; otherwise returns None, after saving the
        state if ``save``.
        """
        nodes = self.nodes.values()
        key = (*[nrt.cur for nrt in nodes], *[ert.occupancy for ert in self.edges.values()])
        saved = self._saved
        if saved is not None and key == saved[0]:
            return self._skip(saved[1], saved[2], saved[3], t)
        if save:
            self._saved = (key, t, [nrt.fired for nrt in nodes], [len(nrt.starts) for nrt in nodes])
        return None

    def _skip(self, t1: int, fired: list[int], nstarts: list[int], t2: int) -> int:
        """Replay the window ``[t1, t2)`` as often as the budget and the
        owed firings allow; return the number of cycles skipped."""
        period = t2 - t1
        k = (self.horizon_limit - t2) // period
        for nrt, f in zip(self.nodes.values(), fired):
            d = nrt.fired - f
            if d:
                k = min(k, (nrt.owed - nrt.fired - 1) // d)
        if k < 1:
            return 0
        span = k * period
        for ert in self.edges.values():
            trace = ert.trace
            ert.peak = max(trace, default=0)
            trace += trace[t1:t2] * k
        # Shifted starts come from one list of cycle numbers, so nodes share
        # the int objects rather than each allocating its own.
        cycles = list(range(t2, t2 + span))
        for nrt, f, n in zip(self.nodes.values(), fired, nstarts):
            window = nrt.starts[n:]
            shifted = [0] * (k * len(window))
            for i, s in enumerate(window):
                shifted[i :: len(window)] = cycles[s - t1 :: period]
            nrt.starts += shifted
            nrt.fired += k * (nrt.fired - f)
        if self.last_sink_cycle is not None and self.last_sink_cycle >= t1:
            self.last_sink_cycle += span
        self.skipped = span
        self._resume = t2 + span
        return span

    # -- exports -------------------------------------------------------------

    def fifo_peaks(self) -> dict[str, int]:
        """Peak occupancy per buffered edge.  The replayed cycles repeat
        stepped ones, so only the stepped cycles are scanned."""
        r = self._resume
        return {
            eid: max(rt.peak, max(rt.trace[r:] if r else rt.trace, default=0))
            for eid, rt in self.edges.items()
        }

    def underflows(self) -> list[str]:
        return [eid for eid, rt in self.edges.items() if rt.underflow]


# ---------------------------------------------------------------------------
# Public operations


def simulate_schedule(
    g: Graph,
    iterations: int | None = None,
    *,
    horizon: int | None = None,
    gate_offset: int = 0,
) -> Schedule:
    """Run the self-timed schedule for ``iterations`` graph iterations.

    Parameters
    ----------
    g : Graph
        A graph that passed validation.
    iterations : int, optional
        Defaults to the document's ``meta.iterations``.
    horizon : int, optional
        Cycle budget override; the default scales with the repetition
        vector and pattern lengths.
    gate_offset : int
        Added to every firing threshold.  0 for normal operation; negative
        values deliberately corrupt the thresholds (fault injection) and
        positive values over-constrain them (may deadlock).

    Raises
    ------
    Deadlock, HorizonExceeded
    """
    if iterations is None:
        iterations = g.iterations
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m = Machine(g, iterations, horizon=horizon, gate_offset=gate_offset).run()
    return Schedule(
        graph=g.name,
        iterations=iterations,
        firing_starts=m.starts,
        horizon=m.cycles,
        per_edge_occupancy={eid: rt.trace for eid, rt in m.edges.items()},
        last_sink_cycle=m.last_sink_cycle,
        fifo_peaks=m.fifo_peaks(),
    )


def size_fifos(s: Schedule, g: Graph) -> dict[str, int]:
    """Peak observed occupancy per non-sink edge, as the machine reported it.

    Run the schedule for at least two iterations before trusting these as
    steady-state capacities; allocation additionally never drops below one
    full firing of the consumer (see :func:`patflow.lowering.lower_edges`).
    """
    return dict(s.fifo_peaks)


def timing_report(s: Schedule, g: Graph) -> TimingReport:
    """Latency and average throughput of a completed schedule.

    Latency counts the inclusive cycle span from the first firing start to
    the cycle in which the last sink token is produced.
    """
    first = s.first_start
    if first is None:
        return TimingReport(0, 0.0, size_fifos(s, g))
    last = s.last_sink_cycle if s.last_sink_cycle is not None else s.horizon - 1
    latency = last - first + 1
    throughput = s.iterations / latency if latency > 0 else 0.0
    return TimingReport(latency, throughput, size_fifos(s, g))


def render_gantt(s: Schedule, g: Graph) -> str:
    """Fixed-width text chart: one row per node, one column per cycle,
    ``#`` while the node is firing."""
    horizon = s.horizon
    names = [n for n in g.topo_order() if g.nodes[n].kind is not NodeKind.SINK]
    label_w = max([len(n) for n in names] + [5]) + 2
    out = StringIO()
    ruler = "".join(str(t % 10) for t in range(horizon))
    out.write("cycle".ljust(label_w) + ruler + "\n")
    for name in names:
        length = g.nodes[name].length
        row = ["."] * horizon
        for start in s.firing_starts.get(name, []):
            for k in range(length):
                if start + k < horizon:
                    row[start + k] = "#"
        out.write(name.ljust(label_w) + "".join(row) + "\n")
    return out.getvalue()


def schedule_to_json(s: Schedule) -> dict:
    """JSON-ready view of a schedule."""
    return {
        "graph": s.graph,
        "iterations": s.iterations,
        "horizon": s.horizon,
        "firing_starts": {k: list(v) for k, v in s.firing_starts.items()},
        "fifo_peaks": dict(s.fifo_peaks),
        "last_sink_cycle": s.last_sink_cycle,
    }
