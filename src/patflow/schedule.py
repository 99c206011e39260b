"""Self-timed (ASAP) cycle-accurate scheduling and FIFO sizing.

One machine runs the graph cycle by cycle on token counts alone, visiting
only the nodes whose outcome can change.  Firing decisions never read
token values, so the schedule view and the value simulator
(:mod:`patflow.valuesim`) both run it: the value simulator then replays
concrete values along its :class:`TokenPlan`, the firings and the real
tokens of every read that the run recorded, and the two always agree on
every firing decision.

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

Occupancy records each FIFO at the moment its consumer samples it (after
the producer's same-cycle supply, before consumption), which is the
quantity the thresholds gate on.  It is kept as change points
(:class:`Occupancy`); :attr:`Schedule.per_edge_occupancy` expands it into
one sample per cycle when first read.

Events
------
A node's visit depends only on its own phase and owed firings, on its
input FIFOs and on its producers' phases.  So after cycle 0, which visits
every node, a cycle visits only the nodes that stepped in the cycle before
(mid-firing, or done with a firing and maybe starting the next), the
consumers of a FIFO that tokens reached, and the consumers of a producer
whose phase changed; every other node would stay idle.  A node is sampled
at its visits, which is whenever its FIFOs can change.  The rules compile
into :class:`StepTables`, built once per graph and gate offset and kept on
the graph's :class:`~patflow.prepared.PreparedGraph`; a new machine only
allocates run-time state.  A run is complete when no node owes a firing or
is mid-firing; the machine keeps a count of those nodes, so the test costs
O(1) per cycle.

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
without stepping: the occupancy records one repeat marker and the starts
shift by multiples of ``P``.  ``K`` stops short of the cycle budget and of
any node's last owed firing::

    K = min((limit - t2) // P, min over d_i > 0 of (owed_i - fired_i - 1) // d_i)

with ``fired_i`` counted at ``t2``; the rest of the run, the drain, is
stepped as before.  Outputs, errors and their messages are identical to a
fully stepped run.  The replayed cycles hold no occupancy the stepped ones
did not, so the FIFO peaks (:attr:`Schedule.fifo_peaks`) come from the
stepped cycles alone.  A long run therefore costs about its transient, one
period, its drain and its firings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
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
    occupancy: Occupancy = field(repr=False, compare=False)
    last_sink_cycle: int | None
    fifo_peaks: dict[str, int]

    @cached_property
    def per_edge_occupancy(self) -> dict[str, list[int]]:
        """Each buffered edge's occupancy per cycle, as its consumer samples
        it.  Expanded from :attr:`occupancy` on first read, then kept."""
        return self.occupancy.expand()

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


class StepTables:
    """What a :class:`Machine` runs from, for one graph and one gate offset.

    Non-sink nodes are numbered in topological order and buffered edges (the
    edges into non-sink nodes) in document order.  ``rows[i]`` is node
    ``i``'s last phase, its input edges as ``(edge, producer, gate, cp
    phases)``, its output edges as ``(pp phases, kind, edge)`` and the
    consumers its phase changes wake.  Each gate has one entry per producer
    phase plus the idle entry last, with ``gate_offset`` applied and clamped
    at 0; a source's same-cycle supply is added to the entry of the phase
    that supplied it, so no cycle-start snapshot of the FIFOs is taken.

    Built on first use by :meth:`patflow.prepared.PreparedGraph.step_tables`
    and kept there, so machines on one graph share them.
    """

    def __init__(self, g: Graph, gate_offset: int):
        prep = g.prepared
        nodes = g.nodes
        self.names = [n for n in prep.topo if nodes[n].kind is not NodeKind.SINK]
        index = {n: i for i, n in enumerate(self.names)}
        # Document order, which is the order of ``Machine.starts``.
        self.listed = [index[n] for n in nodes if n in index]
        edges = [e for e in g.edges if e.consumer in index]
        self.edge_ids = [e.id for e in edges]
        self.consumer = [index[e.consumer] for e in edges]
        edge_index = {e.id: j for j, e in enumerate(edges)}
        reps = prep.reps
        self.reps = [reps[n] for n in self.names]
        self.work = sum(reps[n] * max(1, nodes[n].length) for n in self.names)

        gates = prep.gates
        self.rows = []
        for name in self.names:
            spec = nodes[name]
            ins = []
            for e in prep.ins[name]:
                entries = gates[e.id].entries
                if nodes[e.producer].kind is NodeKind.SOURCE:
                    supplied = e.pp.phases + (0,)
                else:
                    supplied = (0,) * len(entries)
                gate = tuple(max(0, x + gate_offset) + s for x, s in zip(entries, supplied))
                ins.append((edge_index[e.id], index[e.producer], gate, e.cp.phases))
            outs = []
            for port in range(len(spec.patterns.outputs)):
                for e in prep.outs.get((name, port), ()):
                    if e.id not in edge_index:
                        outs.append((e.pp.phases, _TO_SINK, -1))
                    elif spec.kind is NodeKind.SOURCE:
                        outs.append((e.pp.phases, _SAME_CYCLE, edge_index[e.id]))
                    else:
                        outs.append((e.pp.phases, _NEXT_CYCLE, edge_index[e.id]))
            woken = sorted({self.consumer[j] for _, _, j in outs if j >= 0})
            self.rows.append((spec.length - 1, tuple(ins), tuple(outs), tuple(woken)))


class Occupancy:
    """Each buffered edge's consumer-side sample per cycle, as change points.

    ``points[eid]`` is a pair of lists ``(cycles, values)``: from
    ``cycles[k]`` on, the edge's consumer samples ``values[k]``, until the
    next point.  Both lists start with the point ``(0, 0)``; the machine
    adds one whenever a consumer's visit finds its FIFO changed, so of two
    points on cycle 0 the second holds.  A skipped steady state is one
    repeat marker ``skip = (t1, t2, k)``: cycles ``t2`` to ``t2 + k * (t2 -
    t1)`` repeat the window ``[t1, t2)`` and hold no point.
    """

    __slots__ = ("points", "horizon", "skip")

    def __init__(self, points: dict[str, tuple[list[int], list[int]]], horizon: int,
                 skip: tuple[int, int, int] | None):
        self.points = points
        self.horizon = horizon
        self.skip = skip

    def reader(self, eid: str):
        """The function ``at(t)``: edge ``eid``'s sample in cycle ``t``."""
        cycles, values = self.points[eid]
        if self.skip is None:
            return lambda t: values[bisect_right(cycles, t) - 1]
        t1, t2, k = self.skip
        period = t2 - t1
        end = t2 + k * period

        def at(t: int) -> int:
            if t2 <= t < end:
                t = t1 + (t - t2) % period
            return values[bisect_right(cycles, t) - 1]

        return at

    def expand(self) -> dict[str, list[int]]:
        """Every edge's dense trace, one sample per cycle of the run."""
        return {eid: self._dense(cycles, values) for eid, (cycles, values) in self.points.items()}

    def _dense(self, cycles: list[int], values: list[int]) -> list[int]:
        horizon = self.horizon
        skip = self.skip
        trace: list[int] = []
        v = 0

        def repeat(t1: int, t2: int, k: int) -> None:
            trace.extend([v] * (t2 - len(trace)))
            trace.extend(trace[t1:t2] * k)

        for c, x in zip(cycles, values):
            if skip and c >= skip[1]:
                repeat(*skip)
                skip = None
            trace += [v] * (c - len(trace))
            v = x
        if skip:
            repeat(*skip)
        trace += [v] * (horizon - len(trace))
        return trace

    def peaks(self) -> dict[str, int]:
        """Each edge's largest sample; the replayed cycles repeat earlier ones."""
        return {eid: max(values) for eid, (_, values) in self.points.items()}


# The earliest repeat shows at the anchor's second completed firing, and a
# skip must then leave the anchor's last owed firing to the drain.
_MIN_PROBE_OWED = 4


class Machine:
    """Event-driven, self-timed execution of a graph on token counts.

    The machine runs from the graph's :class:`StepTables` and only
    allocates run-time state: per node its phase, firings and starts, per
    buffered edge its occupancy and change points.  :meth:`run` advances
    one cycle at a time but visits only the nodes whose outcome can change
    (see the module docstring); ``visits`` counts them.  A visit samples the
    node's input FIFOs and adds a point to :class:`Occupancy` only where a
    sample differs from the last.  Completion is a count of the nodes that
    still owe firings, so testing it costs O(1) per cycle, and a cycle in
    which no node steps is a deadlock.

    :meth:`run` also skips the periodic steady state (see the module
    docstring).  A probe costs O(1) per firing the anchor completes: the
    loop compares one edge's occupancy with its value in the saved state,
    and builds the full O(V+E) state only when they match, or when the
    probe count reaches a power of two and the state is saved anew.  An
    anchor owing fewer than ``_MIN_PROBE_OWED`` firings cannot leave room
    for a skip and is not probed at all.  ``skipped`` counts the cycles
    replayed rather than stepped.

    Token values play no part in any firing decision, so
    :func:`patflow.valuesim.simulate_clocked` derives them afterwards from
    the run's :class:`TokenPlan`.

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
        tb = self.tables = g.prepared.step_tables(gate_offset)
        n = len(tb.names)
        self.owed = [r * iterations for r in tb.reps]
        self.fired = [0] * n
        # The phase a node stepped in its latest visit, or -1 if it did not
        # step; gate tables are indexed with it, so -1 picks the idle entry.
        # A node that is not visited in a cycle did not step in the one
        # before, so its -1 still holds.
        self.cur = [-1] * n
        self.firings = [[] for _ in range(n)]
        self.starts: dict[str, list[int]] = {tb.names[i]: self.firings[i] for i in tb.listed}
        m = len(tb.edge_ids)
        self.occ = [0] * m
        # The occupancy each consumer saw at its latest visit, the last point.
        self.sampled = [0] * m
        self.cycles_at = [[0] for _ in range(m)]
        self.values_at = [[0] for _ in range(m)]
        self.underflow = [False] * m
        caps = capacities or {}
        self.checked = [
            (j, caps[eid]) for j, eid in enumerate(tb.edge_ids) if caps.get(eid) is not None
        ]
        self.horizon_limit = 4 * iterations * tb.work + 8 if horizon is None else horizon

        self.last_sink_cycle: int | None = None
        self.cycles = 0
        self.skipped = 0
        self.visits = 0
        self.occupancy: Occupancy | None = None
        self._skip: tuple[int, int, int] | None = None
        self._saved: tuple | None = None

    # -- stepping ------------------------------------------------------------

    def run(self) -> "Machine":
        tb = self.tables
        rows, consumer = tb.rows, tb.consumer
        cur, fired, owed, firings = self.cur, self.fired, self.owed, self.firings
        occ, sampled, cycles_at, values_at, underflow = (
            self.occ, self.sampled, self.cycles_at, self.values_at, self.underflow)
        limit = self.horizon_limit
        checked = self.checked
        # Nodes that still owe firings or are mid-firing; the run is complete
        # when none are left.  Tokens from compute nodes wait in ``pending``
        # until the end of the cycle, so none are in flight at this test.
        remaining = sum(1 for x in owed if x)
        pending: list[tuple[int, int]] = []
        # ``queued[i] == t``: node i is due for a visit in cycle t.
        queued = [0] * len(rows)
        due = list(range(len(rows)))  # a heap; cycle 0 visits every node
        visits = 0
        # Probe n comes after the anchor's n-th completed firing.  Among the
        # nodes owing the fewest firings the anchor is the last in
        # topological order, which fires at the pace of the graph rather
        # than at that of its own inputs.
        anchor = min(reversed(range(len(rows))), key=owed.__getitem__, default=None)
        if anchor is not None and owed[anchor] < _MIN_PROBE_OWED:
            anchor = None
        seen = 0
        save_at = 1  # Brent: the state is saved anew at powers of two
        fp = occ or [0]  # ``fp[0]``: one edge's occupancy, compared first
        fp_saved = None  # its value in the saved state
        t = 0
        while remaining:
            if t >= limit:
                raise HorizonExceeded(f"no completion within {limit} cycles")
            stepped: list[int] = []
            while due:
                i = heappop(due)
                visits += 1
                last, ins, outs, woken = rows[i]
                was = cur[i]
                ph = was + 1
                if not 0 < ph <= last:
                    # Idle: start a firing if one is owed and every gate is
                    # open.  Producers come first in topological order, so
                    # ``cur[p]`` already holds their phase in this cycle.
                    ph = -1
                    if fired[i] != owed[i]:
                        for j, p, gate, _ in ins:
                            if occ[j] < gate[cur[p]]:
                                break
                        else:
                            ph = 0
                    if ph < 0:
                        for j, _, _, _ in ins:
                            if occ[j] != sampled[j]:
                                sampled[j] = occ[j]
                                cycles_at[j].append(t)
                                values_at[j].append(occ[j])
                        if was >= 0:
                            cur[i] = -1
                            for c in woken:
                                if queued[c] != t:
                                    queued[c] = t
                                    heappush(due, c)
                        continue
                    firings[i].append(t)
                cur[i] = ph
                stepped.append(i)
                if ph != was:
                    for c in woken:
                        if queued[c] != t:
                            queued[c] = t
                            heappush(due, c)

                for j, _, _, cp in ins:
                    o = occ[j]
                    if o != sampled[j]:
                        sampled[j] = o
                        cycles_at[j].append(t)
                        values_at[j].append(o)
                    c = cp[ph]
                    if c:
                        if o >= c:
                            occ[j] = o - c
                        else:
                            occ[j] = 0
                            underflow[j] = True

                for pp, kind, j in outs:
                    c = pp[ph]
                    if not c:
                        continue
                    if kind == _NEXT_CYCLE:
                        pending.append((j, c))
                    elif kind == _SAME_CYCLE:
                        occ[j] += c
                        w = consumer[j]
                        if queued[w] != t:
                            queued[w] = t
                            heappush(due, w)
                    else:
                        self.last_sink_cycle = t

                if ph >= last:
                    fired[i] += 1
                    if fired[i] == owed[i]:
                        remaining -= 1

            t_next = t + 1
            for i in stepped:
                queued[i] = t_next
            due = stepped.copy()
            for j, c in pending:
                occ[j] += c
                i = consumer[j]
                if queued[i] != t_next:
                    queued[i] = t_next
                    due.append(i)
            if pending:
                pending.clear()
                heapify(due)
            # The consumer's sample (what ``size_fifos`` sizes) already holds
            # a source's tokens of this cycle, before the consumer takes its
            # share; tokens written at the end of the cycle are in ``occ``.
            for j, cap in checked:
                held = max(sampled[j], occ[j])
                if held > cap:
                    raise FifoOverflow(
                        f"edge '{tb.edge_ids[j]}' holds {held} tokens, sized for {cap}"
                    )
            if not stepped:
                blocked = [n for n, f, o in zip(tb.names, fired, owed) if f < o]
                occupancy = dict(zip(tb.edge_ids, occ))
                raise Deadlock(
                    f"no progress at cycle {t}; waiting nodes {blocked}, occupancy {occupancy}"
                )
            t = t_next
            if anchor is not None and fired[anchor] != seen:
                seen = fired[anchor]
                if seen == save_at or fp[0] == fp_saved:
                    skip = self._probe(t, seen == save_at)
                    if skip is not None:
                        t += skip
                        anchor = None
                        for i in due:
                            queued[i] = t
                    elif seen == save_at:
                        save_at *= 2
                        fp_saved = fp[0]
        self.visits = visits
        self.cycles = t
        self.occupancy = Occupancy(
            dict(zip(tb.edge_ids, zip(cycles_at, values_at))), t, self._skip)
        return self

    def _probe(self, t: int, save: bool) -> int | None:
        """Compare the state at cycle ``t`` with the saved one.

        On a repeat, makes the skip and returns the cycles skipped, 0 when
        no whole window fits; otherwise returns None, after saving the
        state if ``save``.
        """
        key = (tuple(self.cur), tuple(self.occ))
        saved = self._saved
        if saved is not None and key == saved[0]:
            return self._skip_window(saved[1], saved[2], saved[3], t)
        if save:
            self._saved = (key, t, self.fired.copy(), [len(s) for s in self.firings])
        return None

    def _skip_window(self, t1: int, fired: list[int], nstarts: list[int], t2: int) -> int:
        """Replay the window ``[t1, t2)`` as often as the budget and the
        owed firings allow; return the number of cycles skipped."""
        period = t2 - t1
        k = (self.horizon_limit - t2) // period
        for now, then, owed in zip(self.fired, fired, self.owed):
            d = now - then
            if d:
                k = min(k, (owed - now - 1) // d)
        if k < 1:
            return 0
        span = k * period
        # Shifted starts come from one list of cycle numbers, so nodes share
        # the int objects rather than each allocating its own.
        cycles = list(range(t2, t2 + span))
        for i, (starts, n) in enumerate(zip(self.firings, nstarts)):
            window = starts[n:]
            shifted = [0] * (k * len(window))
            for w, s in enumerate(window):
                shifted[w :: len(window)] = cycles[s - t1 :: period]
            starts += shifted
            self.fired[i] += k * (self.fired[i] - fired[i])
        if self.last_sink_cycle is not None and self.last_sink_cycle >= t1:
            self.last_sink_cycle += span
        self.skipped = span
        self._skip = (t1, t2, k)
        return span

    # -- exports -------------------------------------------------------------

    def fifo_peaks(self) -> dict[str, int]:
        """Peak occupancy per buffered edge (see :meth:`Occupancy.peaks`)."""
        return self.occupancy.peaks()

    def underflows(self) -> list[str]:
        return [eid for eid, u in zip(self.tables.edge_ids, self.underflow) if u]


class TokenPlan:
    """Which tokens every firing of one finished run reads.

    Token values play no part in any firing decision, so one counts-only
    run fixes, for every stimulus, when each node fires and how many real
    tokens each of its reads finds.  The plan keeps that and drops the
    machine: ``starts``, ``cycles`` and ``underflows`` as the run reported
    them, and ``reads[node]``, for every non-sink node in topological
    order, one entry per input edge (in port order).  An entry is a flat
    list with the real tokens read in each (firing, phase), firing-major;
    a phase reading ``c`` tokens of which ``n`` were waiting pads ``c - n``
    zeros.  An edge whose every read was full has ``None`` instead, which
    is every edge of a run with sound gates.

    :func:`patflow.valuesim.simulate_clocked` replays values along a plan;
    :meth:`patflow.prepared.PreparedGraph.token_plan` keeps recent ones.
    ``layout`` is ``None`` until the first replay, which works out from the
    plan what every later replay of it reads (a
    :class:`patflow.valuesim._ReplayLayout`) and keeps it here, so it goes
    when the plan does.  Callers must not modify what they read here.
    """

    __slots__ = ("starts", "cycles", "underflows", "reads", "layout")

    def __init__(self, m: Machine):
        tb = m.tables
        self.starts = m.starts
        self.cycles = m.cycles
        self.underflows = m.underflows()
        self.reads: dict[str, tuple[list[int] | None, ...]] = {}
        for name, starts, (_, ins, _, _) in zip(tb.names, m.firings, tb.rows):
            reads = []
            for j, _, _, cp in ins:
                # A read comes up short exactly when the machine flags the
                # edge: both compare ``c`` with the consumer's sample.
                if m.underflow[j]:
                    at = m.occupancy.reader(tb.edge_ids[j])
                    reads.append(
                        [min(c, at(s + ph)) for s in starts for ph, c in enumerate(cp)])
                else:
                    reads.append(None)
            self.reads[name] = tuple(reads)
        self.layout = None


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
        occupancy=m.occupancy,
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
