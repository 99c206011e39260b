"""A plain cycle-stepping scheduler, the reference the scheduler is tested
against.

It shares no code with :mod:`patflow.schedule`: every cycle visits every
non-sink node in topological order, keeps every edge's occupancy sample in a
dense list, and has no events, periods or skips.  The graph's own passes
supply the topological order, the repetition vector and the gate tables.

A node starts a firing when every input FIFO held, at the start of the
cycle, at least the gate entry of its producer's phase in that cycle (the
idle entry when the producer is between firings).  A source's tokens count
in the cycle it supplies them, a compute node's from the next cycle, and a
consumer samples a FIFO after that supply and before it takes its tokens.
"""

from __future__ import annotations

from patflow import NodeKind, compute_repetition_vector
from patflow.errors import Deadlock, FifoOverflow, HorizonExceeded
from patflow.lowering import edge_gate_table


def step_schedule(g, iterations, *, gate_offset=0, horizon=None, capacities=None):
    """Everything a run reports: ``(starts, occupancy, cycles,
    last_sink_cycle, underflows, peaks)``, or the raised error's type name
    and message."""
    try:
        return _step(g, iterations, gate_offset, horizon, capacities or {})
    except (Deadlock, FifoOverflow, HorizonExceeded) as exc:
        return type(exc).__name__, str(exc)


def _step(g, iterations, gate_offset, horizon, capacities):
    nodes = g.nodes
    names = [n for n in g.topo_order() if nodes[n].kind is not NodeKind.SINK]
    reps = compute_repetition_vector(g)
    owed = {n: reps[n] * iterations for n in names}
    buffered = [e for e in g.edges if nodes[e.consumer].kind is not NodeKind.SINK]
    ins = {n: sorted((e for e in buffered if e.consumer == n), key=lambda e: e.consumer_port)
           for n in names}
    outs = {n: [e for e in g.edges if e.producer == n] for n in names}
    gate = {e.id: [max(0, x + gate_offset) for x in edge_gate_table(g, e).entries]
            for e in buffered}
    work = sum(reps[n] * max(1, nodes[n].length) for n in names)
    limit = 4 * iterations * work + 8 if horizon is None else horizon

    occ = {e.id: 0 for e in buffered}
    trace = {e.id: [] for e in buffered}
    phase = dict.fromkeys(names, -1)  # the phase stepped this cycle, -1 if idle
    fired = dict.fromkeys(names, 0)
    starts = {n: [] for n in nodes if n in fired}  # document order
    underflow = set()
    last_sink = None
    t = 0
    while any(fired[n] < owed[n] for n in names):
        if t >= limit:
            raise HorizonExceeded(f"no completion within {limit} cycles")
        at_start = dict(occ)
        pending = []
        stepped = False
        for n in names:
            length = nodes[n].length
            if 0 <= phase[n] < length - 1:
                ph = phase[n] + 1
            elif fired[n] < owed[n] and all(
                    at_start[e.id] >= gate[e.id][phase[e.producer]] for e in ins[n]):
                ph = 0
                starts[n].append(t)
            else:
                ph = -1
            phase[n] = ph
            for e in ins[n]:
                trace[e.id].append(occ[e.id])
                c = e.cp.phases[ph] if ph >= 0 else 0
                if occ[e.id] < c:
                    underflow.add(e.id)
                occ[e.id] = max(0, occ[e.id] - c)
            if ph < 0:
                continue
            stepped = True
            for e in outs[n]:
                c = e.pp.phases[ph]
                if not c:
                    continue
                if nodes[e.consumer].kind is NodeKind.SINK:
                    last_sink = t
                elif nodes[n].kind is NodeKind.SOURCE:
                    occ[e.id] += c
                else:
                    pending.append((e.id, c))
            if ph == length - 1:
                fired[n] += 1
        for eid, c in pending:
            occ[eid] += c
        for e in buffered:
            cap = capacities.get(e.id)
            held = max(trace[e.id][-1], occ[e.id])
            if cap is not None and held > cap:
                raise FifoOverflow(f"edge '{e.id}' holds {held} tokens, sized for {cap}")
        if not stepped:
            waiting = [n for n in names if fired[n] < owed[n]]
            raise Deadlock(f"no progress at cycle {t}; waiting nodes {waiting}, occupancy {occ}")
        t += 1
    underflows = [e.id for e in buffered if e.id in underflow]
    peaks = {eid: max(v, default=0) for eid, v in trace.items()}
    return starts, trace, t, last_sink, underflows, peaks
