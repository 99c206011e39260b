"""Value-level simulation and clocked-vs-functional equivalence checking.

Two executions of the same graph:

* :func:`eval_combinational` ignores time entirely.  Every node fires its
  full repetition count in topological order, consuming and producing whole
  token streams.  This is the functional meaning of the graph.
* :func:`simulate_clocked` first runs the counts-only machine of
  :mod:`patflow.schedule`, which fixes every firing exactly as the
  generated hardware would take it, and then replays concrete values along
  those firings: node by node, each consumer takes as many real tokens as
  the recorded occupancy says were waiting in its FIFO, and pads the
  rest of an underflowing read with zeros.

Both read the graph's :class:`~patflow.prepared.PreparedGraph`: rates,
adjacency and compiled node bodies are derived once per graph, not once per
run.  A whole firing is evaluated by one helper,
:meth:`~patflow.prepared.PreparedGraph.firing_outputs`.  The replay uses it
for every compute node except a multi-phase fold, which steps its lambda
phase by phase: an elementwise firing is evaluated once, on its whole
zero-padded input, and each output port is cut into its phases' tokens.
Both check the stimulus the same way.

:func:`equivalence_check` runs both on random stimulus and compares the
token streams delivered to each sink input.  With ``gate_offset=0`` the two
must agree on every legal graph; a negative offset corrupts the firing
thresholds and lets tests confirm that the comparison actually detects
premature firings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import ShapeMismatch
from .graphs import Graph, NodeKind, NodeSpec
from .prepared import PreparedGraph
from .schedule import Machine

__all__ = [
    "SimResult",
    "EquivalenceReport",
    "random_stimulus",
    "eval_combinational",
    "simulate_clocked",
    "equivalence_check",
]


@dataclass
class SimResult:
    """Outcome of a clocked value simulation."""

    arrivals: dict[str, list[tuple[int, int]]]
    edge_arrivals: dict[str, list[tuple[int, int]]]
    cycles: int
    firing_starts: dict[str, list[int]]
    underflow_edges: list[str]
    fold_trace: dict[str, list[int]]

    def values(self, sink: str) -> list[int]:
        """Token values delivered to ``sink`` in arrival order."""
        return [v for _, v in self.arrivals[sink]]


@dataclass
class EquivalenceReport:
    """Summary of repeated random-stimulus comparisons."""

    trials: int
    mismatches: int
    gate_offset: int
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _stimulus_iterations(
    g: Graph, stimulus: dict[str, list[list[int]]], iterations: int | None
) -> int:
    """The iteration count the stimulus holds, checked against
    ``iterations`` when that is given (default 1 for a graph without
    sources).  Every firing vector must hold one firing's tokens, and only
    sources take stimulus."""
    reps = g.prepared.reps
    counts = set()
    for src in g.sources:
        vecs = stimulus.get(src.name)
        if vecs is None:
            raise ShapeMismatch(f"stimulus missing source '{src.name}'")
        r = reps[src.name]
        if len(vecs) % r:
            raise ShapeMismatch(
                f"source '{src.name}' takes {r} firing vectors per iteration, "
                f"got {len(vecs)}"
            )
        counts.add(len(vecs) // r)
    if len(counts) > 1:
        raise ShapeMismatch(
            f"stimulus lengths disagree on the iteration count: {sorted(counts)}"
        )
    inferred = counts.pop() if counts else None
    if iterations is None:
        iterations = inferred if inferred is not None else 1
    elif inferred is not None and inferred != iterations:
        raise ShapeMismatch(
            f"stimulus holds {inferred} iterations, {iterations} requested"
        )
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    for src in g.sources:
        per_firing = sum(p.total for p in src.patterns.outputs)
        for k, v in enumerate(stimulus[src.name]):
            if len(v) != per_firing:
                raise ShapeMismatch(
                    f"source '{src.name}' firing {k}: expected {per_firing} "
                    f"tokens, got {len(v)}"
                )
    extra = set(stimulus) - {s.name for s in g.sources}
    if extra:
        raise ShapeMismatch(f"stimulus for non-source nodes: {sorted(extra)}")
    return iterations


def random_stimulus(
    g: Graph, iterations: int = 1, seed: int | None = None
) -> dict[str, list[list[int]]]:
    """Uniform random tokens for every source, ``iterations`` rounds deep."""
    rng = random.Random(seed)
    reps = g.prepared.reps
    out: dict[str, list[list[int]]] = {}
    for src in g.sources:
        hi = (1 << src.width) - 1
        per_firing = sum(p.total for p in src.patterns.outputs)
        out[src.name] = [
            [rng.randint(0, hi) for _ in range(per_firing)]
            for _ in range(reps[src.name] * iterations)
        ]
    return out


def _combinational_streams(
    g: Graph, stimulus: dict[str, list[list[int]]], iterations: int
) -> dict[str, list[int]]:
    """Token stream per edge id under the untimed functional semantics."""
    prep = g.prepared
    streams: dict[str, list[int]] = {e.id: [] for e in g.edges}
    for name in prep.topo:
        spec = g.nodes[name]
        if spec.kind is NodeKind.SINK:
            continue
        firings = prep.reps[name] * iterations
        ins = [(streams[e.id], e.cp.total) for e in prep.ins[name]]
        cursors = [0] * len(ins)
        outs = [
            [streams[e.id] for e in prep.outs.get((name, port), ())]
            for port in range(len(spec.patterns.outputs))
        ]
        for k in range(firings):
            if spec.kind is NodeKind.SOURCE:
                vec = stimulus[name][k]
                per_port: list[list[int]] = []
                base = 0
                for p in spec.patterns.outputs:
                    per_port.append(list(vec[base : base + p.total]))
                    base += p.total
            else:
                vectors = []
                for i, (s, need) in enumerate(ins):
                    vectors.append(tuple(s[cursors[i] : cursors[i] + need]))
                    cursors[i] += need
                per_port = prep.firing_outputs(name, vectors)
            for port, vals in enumerate(per_port):
                for s in outs[port]:
                    s.extend(vals)
    return streams


def eval_combinational(
    g: Graph,
    stimulus: dict[str, list[list[int]]] | None = None,
    *,
    iterations: int | None = None,
) -> dict[str, list[int]]:
    """Functional reference output: token values per sink.

    A sink with several input ports reports the streams concatenated in
    port order.  The iteration count is inferred from the stimulus depth
    when not given.
    """
    stimulus = stimulus or {}
    iterations = _stimulus_iterations(g, stimulus, iterations)
    streams = _combinational_streams(g, stimulus, iterations)
    out: dict[str, list[int]] = {}
    for sink in g.sinks:
        vals: list[int] = []
        for e in g.prepared.ins[sink.name]:
            vals.extend(streams[e.id])
        out[sink.name] = vals
    return out


def simulate_clocked(
    g: Graph,
    stimulus: dict[str, list[list[int]]] | None = None,
    *,
    iterations: int | None = None,
    gate_offset: int = 0,
    horizon: int | None = None,
    capacities: dict[str, int] | None = None,
) -> SimResult:
    """Cycle-accurate run with concrete token values: the counts-only
    machine fixes every firing, then the values are replayed along them.

    Raises :class:`~patflow.errors.FifoOverflow` when ``capacities`` are
    supplied and any FIFO exceeds its allocation; records (rather than
    raises on) underflows, which can only happen under a non-zero
    ``gate_offset``.
    """
    stimulus = stimulus or {}
    iterations = _stimulus_iterations(g, stimulus, iterations)
    # Plans and node logic are derived before the run, so a body that
    # cannot be planned or compiled fails ahead of any scheduling error.
    g.prepared.fold_steps, g.prepared.bodies
    m = Machine(
        g, iterations, gate_offset=gate_offset, horizon=horizon, capacities=capacities
    ).run()
    return _replay(g, m, stimulus)


def _replay(g: Graph, m: Machine, stimulus: dict[str, list[list[int]]]) -> SimResult:
    """Concrete values along the firings of a finished counts-only run.

    Nodes are replayed in topological order, one firing after another.  At
    firing start ``s`` and phase ``ph`` a consumer takes ``min(c, occ(s +
    ph))`` real tokens from the head of its producer's stream, ``c`` being
    its input pattern's count, and pads the rest with zeros: the edge's
    occupancy (read through :meth:`~patflow.schedule.Occupancy.reader`)
    says how many tokens were waiting in the FIFO.
    Tokens delivered to a sink are stamped with the cycle ``s + ph``.
    """
    prep = g.prepared
    streams: dict[tuple[str, int], list[int]] = {}
    edge_arrivals: dict[str, list[tuple[int, int]]] = {
        e.id: [] for e in g.edges if g.nodes[e.consumer].kind is NodeKind.SINK
    }
    fold_trace: dict[str, list[int]] = {}
    for name in prep.topo:
        spec = g.nodes[name]
        if spec.kind is NodeKind.SINK:
            continue
        ins = [
            (streams[e.producer, e.producer_port], m.occupancy.reader(e.id), e.cp.phases)
            for e in prep.ins[name]
        ]
        cursors = [0] * len(ins)
        outs = []
        for port, p in enumerate(spec.patterns.outputs):
            stream = streams[name, port] = []
            sinks = [
                edge_arrivals[e.id]
                for e in prep.outs.get((name, port), ())
                if e.id in edge_arrivals
            ]
            outs.append((p.phases, stream, sinks))
        for k, s in enumerate(m.starts[name]):
            bufs = []
            for i, (stream, occupancy, cp) in enumerate(ins):
                cur = cursors[i]
                buf: list[int] = []
                for ph, c in enumerate(cp):
                    if c:
                        n = min(c, occupancy(s + ph))
                        buf += stream[cur : cur + n]
                        buf += [0] * (c - n)
                        cur += n
                cursors[i] = cur
                bufs.append(buf)
            phases = _firing_phases(prep, spec, bufs, stimulus, k, fold_trace)
            for ph, vals in enumerate(phases):
                for (pp, stream, sinks), v in zip(outs, vals):
                    if pp[ph]:
                        stream += v
                        for arrivals in sinks:
                            arrivals.extend((s + ph, x) for x in v)

    merged: dict[str, list[tuple[int, int]]] = {}
    for sink in g.sinks:
        merged[sink.name] = [tv for e in prep.ins[sink.name] for tv in edge_arrivals[e.id]]
        merged[sink.name].sort(key=lambda tv: tv[0])
    return SimResult(
        arrivals=merged,
        edge_arrivals=edge_arrivals,
        cycles=m.cycles,
        firing_starts=m.starts,
        underflow_edges=m.underflows(),
        # In the order the nodes first fired, as a clocked run records them.
        fold_trace=dict(sorted(fold_trace.items(), key=lambda kv: m.starts[kv[0]][0])),
    )


def _firing_phases(
    prep: PreparedGraph,
    spec: NodeSpec,
    bufs: list[list[int]],
    stimulus: dict[str, list[list[int]]],
    k: int,
    fold_trace: dict[str, list[int]],
) -> list[list[list[int]]]:
    """Output tokens per phase and port of ``spec``'s firing ``k``, given
    its whole input per port in ``bufs``.  A fold steps its lambda phase by
    phase and appends its accumulator after every phase to ``fold_trace``."""
    in_prefix, out_prefix = prep.offsets[spec.name]
    phases = range(spec.length)
    if spec.kind is NodeKind.SOURCE:
        # The firing vector covers all output ports, port-major.
        vec = stimulus[spec.name][k]
        bases = [0, *accumulate(p.total for p in spec.patterns.outputs)]
        return [
            [vec[b + off[ph] : b + off[ph + 1]] for b, off in zip(bases, out_prefix)]
            for ph in phases
        ]
    plan = prep.plans[spec.name]
    if plan.mode == "fold":
        fn = prep.fold_steps[spec.name]
        counts = [p.phases for p in spec.patterns.outputs]
        acc, seeded = (plan.fold_init, True) if plan.fold_init is not None else (None, False)
        offs = in_prefix[plan.fold_input]
        buf = bufs[plan.fold_input]
        trace = fold_trace.setdefault(spec.name, [])
        out = []
        for ph in phases:
            for tok in buf[offs[ph] : offs[ph + 1]]:
                if not seeded:
                    acc, seeded = tok, True
                else:
                    acc = fn(acc, tok)
            trace.append(acc if acc is not None else 0)
            out.append([[acc] * c[ph] for c in counts])
        return out
    # A general node fires in one phase, and an elementwise node's output
    # element k depends on input element k alone, so both evaluate the
    # whole zero-padded firing at once.
    outs = prep.firing_outputs(spec.name, [tuple(b) for b in bufs])
    return [[v[off[ph] : off[ph + 1]] for v, off in zip(outs, out_prefix)] for ph in phases]


def equivalence_check(
    g: Graph,
    trials: int,
    *,
    seed: int | None = 0,
    iterations: int = 1,
    gate_offset: int = 0,
    max_counterexamples: int = 3,
) -> EquivalenceReport:
    """Compare clocked and functional outputs over random stimulus.

    Every sink input edge must deliver the exact same token stream in both
    executions; each failing trial contributes one mismatch and, up to
    ``max_counterexamples`` times, a counterexample record with the
    stimulus and both streams.  Raises :class:`ValueError` when ``trials``
    is negative.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = random.Random(seed)
    report = EquivalenceReport(trials=trials, mismatches=0, gate_offset=gate_offset)
    sink_edges = [
        e for e in g.edges if g.nodes[e.consumer].kind is NodeKind.SINK
    ]
    for _ in range(trials):
        stim = random_stimulus(g, iterations, seed=rng.getrandbits(64))
        streams = _combinational_streams(g, stim, iterations)
        clocked = simulate_clocked(g, stim, iterations=iterations, gate_offset=gate_offset)
        bad = False
        for e in sink_edges:
            expected = streams[e.id]
            got = [v for _, v in clocked.edge_arrivals[e.id]]
            if expected != got:
                bad = True
                if len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append(
                        {
                            "edge": e.id,
                            "stimulus": stim,
                            "expected": expected,
                            "clocked": got,
                            "underflows": clocked.underflow_edges,
                        }
                    )
        if bad:
            report.mismatches += 1
    return report
