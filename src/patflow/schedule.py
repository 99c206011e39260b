"""Self-timed (ASAP) cycle-accurate scheduling and FIFO sizing.

One machine runs the graph on token counts alone, node by node.  Firing
decisions never read token values, so the schedule view and the value
simulator (:mod:`patflow.valuesim`) both run it, and the two always agree
on every firing decision.  This module deals in counts only: what a value
replay reads of a finished run is cut from it in :mod:`patflow.valuesim`.

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

Node by node
------------
Nothing pushes back on a producer (capacities only raise
:class:`~patflow.errors.FifoOverflow`), so a node's firings depend on its
producers' firings alone: self-timed dataflow is a max-plus recurrence.
The machine therefore settles one non-sink node at a time, in topological
order, from its producers' finished start lists: its own starts, the
samples of its input FIFOs and its underflows.  Sources and input-less
nodes fire back to back.  Any other node steps through its own firings and,
while it waits, through the cycles in which a producer is mid-firing or
starts one; between those it jumps to the next.  A producer's tokens up to
a cycle follow from its start list by one bisection, so a FIFO is kept as
the tokens its consumer has taken.  The rules compile into
:class:`StepTables`, built once per graph and gate offset and kept on the
graph's :class:`~patflow.prepared.PreparedGraph`.

No cycle is then stepped for the whole graph, but the errors are those of
one: the run completes at the cycle after the last busy one.  A cycle in
which no node steps leaves the state as it found it, so a run that is not
complete deadlocks at that cycle, unless the cycle budget ends first.
Capacities do not change a firing, so each FIFO's earliest excess is read
off its samples at the end, and the earliest over all FIFOs is raised,
ties in edge order, if the run got that far.

Periodic steady state
---------------------
Self-timed execution of a consistent graph turns periodic after a short
transient, and so does each node.  A start list is periodic with ``d``
firings per ``P`` cycles from index ``a`` to ``e`` when ``starts[n + d] ==
starts[n] + P`` for ``a <= n < e - d``; the node's phase in cycle ``t + P``
then equals that in cycle ``t`` for ``starts[a] <= t < starts[e - d - 1] +
length``.  A node whose producers all have such a window keys each of its
firing starts from one cycle after the last window begins (a registered
producer's tokens arrive a cycle late) on its FIFOs' samples and on the
cycle modulo the least common multiple of the producers' periods.  Two
starts ``s1 < s2`` with one key have the same future while the producers
keep repeating, so the node replays the window ``[s1, s2)`` ``K`` times
without stepping::

    K = min((hi - s2) // (s2 - s1), (owed - n - 1) // d)

where ``hi`` is the earliest cycle at which a producer's window ends (its
own end plus its period), ``n`` the firings made before ``s2`` and ``d``
those in the window; the last owed firing is left to the drain.  The starts
are extended by slicing, each input FIFO keeps one repeat marker, and the
node steps on from ``s2 + K (s2 - s1)``, where its state is that at ``s2``.
Its own window, for its consumers, is the longest run of its starts around
the replayed one.  A node therefore costs about its local transient, one
period and its drain, and a long run costs time linear in the node count.
The replayed cycles hold no sample the stepped ones did not, so the FIFO
peaks (:attr:`Schedule.fifo_peaks`) come from the stepped cycles alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from io import StringIO
from itertools import accumulate
from math import lcm

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


class StepTables:
    """What a :class:`Machine` runs from, for one graph and one gate offset.

    Non-sink nodes are numbered in topological order and buffered edges (the
    edges into non-sink nodes) in document order.  ``rows[i]`` is node
    ``i``'s length, its input edges as ``(edge, producer, gate, cp phases,
    arrived, producer length, total)``, the last phase in which it hands a
    sink tokens (-1 for none) and its input edges' numbers.  ``arrived[q]``
    counts the tokens of one producer firing that the consumer samples
    ``q`` cycles after the firing started, for ``q`` below the producer's
    length.  Each gate has one entry per producer phase plus the idle entry
    last, with ``gate_offset`` applied and clamped at 0; a source's
    same-cycle supply is added to the entry of the phase that supplied it,
    since the sample holds it.  ``registered[edge]`` is whether the edge's
    producer is a compute node.

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
        self.registered = [nodes[e.producer].kind is not NodeKind.SOURCE for e in edges]
        edge_index = {e.id: j for j, e in enumerate(edges)}
        reps = prep.reps
        self.reps = [reps[n] for n in self.names]
        self.work = sum(reps[n] * max(1, nodes[n].length) for n in self.names)

        gates = prep.gates
        self.rows = []
        for name in self.names:
            spec = nodes[name]
            ins, numbers = [], []
            for e in prep.ins[name]:
                j = edge_index[e.id]
                pp = e.pp.phases
                if nodes[e.producer].kind is NodeKind.SOURCE:
                    arrived, supplied = tuple(accumulate(pp)), pp + (0,)
                else:
                    arrived, supplied = (0, *accumulate(pp[:-1])), (0,) * (len(pp) + 1)
                gate = tuple(max(0, x + gate_offset) + s
                             for x, s in zip(gates[e.id].entries, supplied))
                ins.append((j, index[e.producer], gate, e.cp.phases, arrived, len(pp), e.pp.total))
                numbers.append(j)
            sink = -1
            for port in range(len(spec.patterns.outputs)):
                for e in prep.outs.get((name, port), ()):
                    if e.id not in edge_index:
                        sink = max(sink, *(ph for ph, c in enumerate(e.pp.phases) if c))
            self.rows.append((spec.length, tuple(ins), sink, tuple(numbers)))


class Occupancy:
    """Each buffered edge's consumer-side sample per cycle, as change points.

    ``points[eid]`` is ``(cycles, values, repeat)``: from ``cycles[k]`` on,
    the edge's consumer samples ``values[k]``, until the next point.  Both
    lists start with cycle 0's sample.  ``repeat`` is ``None`` or the window
    the consumer replayed, ``(t1, t2, k)``: the ``k`` periods of ``t2 -
    t1`` cycles from ``t2`` on repeat the window ``[t1, t2)`` and hold no
    point.
    """

    __slots__ = ("points", "horizon")

    def __init__(self, points: dict[str, tuple[list[int], list[int], tuple | None]],
                 horizon: int):
        self.points = points
        self.horizon = horizon

    def reader(self, eid: str):
        """The function ``at(t)``: edge ``eid``'s sample in cycle ``t``."""
        cycles, values, repeat = self.points[eid]
        if repeat is None:
            return lambda t: values[bisect_right(cycles, t) - 1]
        t1, t2, k = repeat
        period = t2 - t1
        end = t2 + k * period

        def at(t: int) -> int:
            if t2 <= t < end:
                t = t1 + (t - t2) % period
            return values[bisect_right(cycles, t) - 1]

        return at

    def expand(self) -> dict[str, list[int]]:
        """Every edge's dense trace, one sample per cycle of the run."""
        return {eid: self._dense(*points) for eid, points in self.points.items()}

    def _dense(self, cycles: list[int], values: list[int], repeat) -> list[int]:
        trace: list[int] = []
        v = 0

        def replay(t1: int, t2: int, k: int) -> None:
            trace.extend([v] * (t2 - len(trace)))
            trace.extend(trace[t1:t2] * k)

        for c, x in zip(cycles, values):
            if repeat and c >= repeat[1]:
                replay(*repeat)
                repeat = None
            trace += [v] * (c - len(trace))
            v = x
        if repeat:
            replay(*repeat)
        trace += [v] * (self.horizon - len(trace))
        return trace

    def peaks(self) -> dict[str, int]:
        """Each edge's largest sample; the replayed cycles repeat earlier ones."""
        return {eid: max(values) for eid, (_, values, _) in self.points.items()}


def _periodic(starts: list[int], length: int, a: int, e: int, d: int, period: int):
    """``(lo, hi, period)``: the longest run of ``starts`` around indices
    ``[a, e)`` that repeats every ``d`` firings and ``period`` cycles, as
    the cycles ``lo <= t < hi`` in which the node's phase equals its phase
    ``period`` cycles later; None if the run is shorter than ``d + 1``."""
    while a and starts[a - 1 + d] == starts[a - 1] + period:
        a -= 1
    while e < len(starts) and starts[e] == starts[e - d] + period:
        e += 1
    if e - d - 1 < a:
        return None
    return starts[a], starts[e - d - 1] + length, period


class Machine:
    """Self-timed execution of a graph on token counts, node by node.

    The machine runs from the graph's :class:`StepTables` and only
    allocates run-time state: per node its starts, per buffered edge the
    tokens its consumer took, its change points and repeat marker and its
    underflow flag.  :meth:`run` settles the nodes in topological order (see
    the module docstring); ``steps`` counts the cycles at which a node was
    stepped, over all nodes, which is the run's work.  Capacities,
    completion and the cycle budget are checked once every node has
    settled.

    Token values play no part in any firing decision, so
    :func:`patflow.valuesim.simulate_clocked` derives them afterwards from
    the finished run.

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
        self.owed = [r * iterations for r in tb.reps]
        self.firings = [[] for _ in tb.names]
        self.starts: dict[str, list[int]] = {tb.names[i]: self.firings[i] for i in tb.listed}
        caps = capacities or {}
        self.checked = [
            (j, caps[eid]) for j, eid in enumerate(tb.edge_ids) if caps.get(eid) is not None
        ]
        self.horizon_limit = 4 * iterations * tb.work + 8 if horizon is None else horizon
        m = len(tb.edge_ids)
        # Per buffered edge: the tokens its consumer took, its sample in the
        # consumer's current cycle and its last change point, and how many
        # producer firings started up to that cycle.
        self.taken, self.sample, self.last, self.seen = [0] * m, [0] * m, [-1] * m, [0] * m
        self.points = [([], [], None) for _ in range(m)]
        self.underflow = [False] * m
        self.last_sink_cycle: int | None = None
        self.cycles = 0
        self.steps = 0
        self.occupancy: Occupancy | None = None
        self._pool: list[int] = []

    def run(self) -> "Machine":
        tb = self.tables
        limit = self.horizon_limit
        windows = []  # per node: its periodic window (see ``_periodic``) or None
        end = 0  # the cycle after the last one in which a node is busy
        complete = True
        for i, (length, ins, sink, _) in enumerate(tb.rows):
            starts = self.firings[i]
            if ins:
                replayed = self._settle(i, windows)
            else:
                starts += self._cycles(0, min(self.owed[i] * length, limit), length)
                replayed = (0, len(starts), 1, length)
            windows.append(replayed and _periodic(starts, length, *replayed))
            if starts:
                end = max(end, starts[-1] + length)
                if sink >= 0:
                    self.last_sink_cycle = max(self.last_sink_cycle or 0, starts[-1] + sink)
            complete = complete and len(starts) == self.owed[i]
        complete = complete and end <= limit
        # A run stepped cycle by cycle checks capacities up to its deadlock
        # or its cycle budget.
        stop = end if complete else min(end + 1, limit)
        over = None  # the earliest excess, ties in edge order
        for j, cap in self.checked:
            cycles, values, _ = self.points[j]
            for c, v in zip(cycles, values):
                if v > cap:
                    # A registered FIFO holds its cycle-c sample from the
                    # end of cycle c - 1; a source-fed one never holds more
                    # than its sample.
                    if tb.registered[j] and c:
                        c -= 1
                    elif tb.registered[j] and cycles[1:2] == [1]:
                        # Only a negative capacity overflows in cycle 0.
                        v = max(v, values[1])
                    if c < stop and (over is None or c < over[0]):
                        over = (c, tb.edge_ids[j], v, cap)
                    break
        if over:
            _, eid, held, cap = over
            raise FifoOverflow(f"edge '{eid}' holds {held} tokens, sized for {cap}")
        if not complete:
            if end < limit:
                blocked = [n for n, s, o in zip(tb.names, self.firings, self.owed) if len(s) < o]
                left = [0] * len(tb.edge_ids)
                for _, ins, _, _ in tb.rows:
                    for j, p, *_, total in ins:
                        left[j] = len(self.firings[p]) * total - self.taken[j]
                occupancy = dict(zip(tb.edge_ids, left))
                raise Deadlock(
                    f"no progress at cycle {end}; waiting nodes {blocked}, occupancy {occupancy}"
                )
            raise HorizonExceeded(f"no completion within {limit} cycles")
        for cycles, values, _ in self.points:
            # Tokens written in the last cycle reach the sample after it.
            if cycles[-1] >= end and len(cycles) > 1:
                cycles.pop()
                values.pop()
        self.cycles = end
        self.occupancy = Occupancy(dict(zip(tb.edge_ids, self.points)), end)
        return self

    def _settle(self, i: int, windows: list) -> tuple[int, int, int, int] | None:
        """Step node ``i`` through its run, from its producers' starts.

        Returns the window it replayed as ``(first, end, d, period)``: its
        starts ``[first, end)`` repeat every ``d`` firings and ``period``
        cycles.  None if it replayed none.
        """
        length, ins, _, edges = self.tables.rows[i]
        owed, limit = self.owed[i], self.horizon_limit
        firings, points, underflow = self.firings, self.points, self.underflow
        taken, seen, sample, last = self.taken, self.seen, self.sample, self.last
        starts = firings[i]
        # Replay needs every producer to have a periodic window.
        keys: dict | None = {}
        lo, hi, period = 0, limit, 1
        for row in ins:
            window = windows[row[1]]
            if window is None:
                keys = None
                break
            lo = max(lo, window[0] + 1)
            hi = min(hi, window[1] + window[2])
            period = lcm(period, window[2])
        replayed = None
        steps = t = n = 0
        ph = -1  # the node's phase in cycle t, -1 between firings
        while True:
            ready = ph < 0 and n < owed
            after = limit + 1  # the next cycle in which an input can change
            for j, p, gate, _, arrived, plen, total in ins:
                src = firings[p]
                k = seen[j] = bisect_right(src, t, seen[j])
                if k and (q := t - src[k - 1]) < plen:
                    sample[j] = o = (k - 1) * total + arrived[q] - taken[j]
                    after = t + 1
                else:
                    sample[j] = o = k * total - taken[j]
                    q = -1
                    if k < len(src) and src[k] < after:
                        after = src[k]
                if o < gate[q]:
                    ready = False
            if ready and t < limit:
                if keys is not None and lo <= t < hi:
                    key = (t % period, *map(sample.__getitem__, edges))
                    hit = keys.get(key)
                    if hit is None:
                        keys[key] = (t, n, [*map(taken.__getitem__, edges)])
                    else:
                        keys = None
                        t1, n1, before = hit
                        span, d = t - t1, n - n1
                        reps = min((hi - t) // span, (owed - n - 1) // d)
                        if reps > 0:
                            starts += [0] * (reps * d)
                            for w in range(d):
                                s = starts[n1 + w] + span
                                starts[n + w::d] = self._cycles(s, s + reps * span, span)
                            for j, was in zip(edges, before):
                                taken[j] += reps * (taken[j] - was)
                                points[j] = (*points[j][:2], (t1, t, reps))
                            replayed = (n1, n + reps * d, d, span)
                            t += reps * span
                            n += reps * d
                            continue
                starts.append(t)
                n += 1
                ph = 0
            steps += 1
            for j, _, _, cp, _, _, _ in ins:
                o = sample[j]
                if o != last[j]:
                    last[j] = o
                    points[j][0].append(t)
                    points[j][1].append(o)
                if ph >= 0 and (c := cp[ph]):
                    if c > o:
                        underflow[j] = True
                        c = o
                    taken[j] += c
            if ph >= 0:
                ph = ph + 1 if ph + 1 < length else -1
                t += 1
            elif t >= limit or after > limit:
                break
            else:
                t = after
        self.steps += steps
        return replayed

    def _cycles(self, start: int, stop: int, step: int) -> list[int]:
        """``list(range(start, stop, step))``, cut from one list of cycle
        numbers, so the nodes' starts share their int objects."""
        pool = self._pool
        if len(pool) < stop:
            pool += range(len(pool), stop)
        return pool[start:stop:step]

    # -- exports -------------------------------------------------------------

    def fifo_peaks(self) -> dict[str, int]:
        """Peak occupancy per buffered edge (see :meth:`Occupancy.peaks`)."""
        return self.occupancy.peaks()

    def underflows(self) -> list[str]:
        return [eid for eid, u in zip(self.tables.edge_ids, self.underflow) if u]


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
