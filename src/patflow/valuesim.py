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

The two evaluate a node in different forms, both derived once per graph
on its :class:`~patflow.prepared.PreparedGraph`.  The functional side runs
the compiled body (:func:`~patflow.exprs.compile_expr`) on whole firings.
The replay runs the node's datapath phase by phase: the netlists of its
plan, which the RTL renders and the estimator counts, compiled by
:func:`~patflow.lowering.compile_datapath`.  Both check the stimulus the
same way.

:func:`equivalence_check` runs both on random stimulus and compares the
token streams delivered to each sink input, so it checks the unrolled
hardware form against the functional meaning: a dropped lane, a wrong
constant fold or a mis-seeded fold shows as a mismatch, as does a token
moved at the wrong time.  With ``gate_offset=0`` the two must agree on
every legal graph; a negative offset corrupts the firing thresholds and
lets tests confirm that the comparison actually detects premature firings.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import ShapeMismatch
from .graphs import Graph, NodeKind
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
    sources).  Every firing vector must be a list of one firing's tokens,
    each fitting the source's width, and only sources take stimulus."""
    if not isinstance(stimulus, Mapping):
        raise ShapeMismatch(
            f"stimulus must map source names to firing vectors, got {type(stimulus).__name__}"
        )
    reps = g.prepared.reps
    counts = set()
    for src in g.sources:
        vecs = stimulus.get(src.name)
        if vecs is None:
            raise ShapeMismatch(f"stimulus missing source '{src.name}'")
        if not isinstance(vecs, list):
            raise ShapeMismatch(
                f"source '{src.name}': expected a list of firing vectors, "
                f"got {type(vecs).__name__}"
            )
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
        bound = 1 << src.width
        for k, v in enumerate(stimulus[src.name]):
            if not isinstance(v, list):
                raise ShapeMismatch(
                    f"source '{src.name}' firing {k}: expected a list of "
                    f"{per_firing} tokens, got {type(v).__name__}"
                )
            if len(v) != per_firing:
                raise ShapeMismatch(
                    f"source '{src.name}' firing {k}: expected {per_firing} "
                    f"tokens, got {len(v)}"
                )
            for j, tok in enumerate(v):
                if type(tok) is not int or not 0 <= tok < bound:
                    raise ShapeMismatch(
                        f"source '{src.name}' firing {k} token {j}: expected an "
                        f"integer in [0, {bound}), got {tok!r}"
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
        bases = list(accumulate((p.total for p in spec.patterns.outputs), initial=0))
        for k in range(firings):
            if spec.kind is NodeKind.SOURCE:
                # The firing vector covers all output ports, port-major.
                vec = stimulus[name][k]
                per_port = [vec[b:e] for b, e in zip(bases, bases[1:])]
            else:
                vectors = []
                for i, (s, need) in enumerate(ins):
                    vectors.append(tuple(s[cursors[i] : cursors[i] + need]))
                    cursors[i] += need
                result = prep.bodies[name](vectors)
                per_port = result if len(outs) > 1 else (result,)
            for port, vals in enumerate(per_port):
                vals = (vals,) if isinstance(vals, int) else vals
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
    stimulus = {} if stimulus is None else stimulus
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
    stimulus = {} if stimulus is None else stimulus
    iterations = _stimulus_iterations(g, stimulus, iterations)
    # Datapaths are planned before the run, so a body that cannot be
    # planned fails ahead of any scheduling error.
    g.prepared.datapaths
    m = Machine(
        g, iterations, gate_offset=gate_offset, horizon=horizon, capacities=capacities
    ).run()
    return _replay(g, m, stimulus)


def _replay(g: Graph, m: Machine, stimulus: dict[str, list[list[int]]]) -> SimResult:
    """Concrete values along the firings of a finished counts-only run.

    Nodes are replayed in topological order, one firing after another and
    one phase after another.  At firing start ``s`` and phase ``ph`` a
    consumer takes ``min(c, occ(s + ph))`` real tokens from the head of its
    producer's stream, ``c`` being its input pattern's count, and pads the
    rest with zeros: the edge's occupancy (read through
    :meth:`~patflow.schedule.Occupancy.reader`) says how many tokens were
    waiting in the FIFO.  Those words go through the node's compiled
    datapath (:attr:`~patflow.prepared.PreparedGraph.datapaths`); a source
    passes on its stimulus.  Tokens delivered to a sink are stamped with
    the cycle ``s + ph``.
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
        outs = []
        for port, p in enumerate(spec.patterns.outputs):
            stream = streams[name, port] = []
            sinks = [
                edge_arrivals[e.id]
                for e in prep.outs.get((name, port), ())
                if e.id in edge_arrivals
            ]
            outs.append((p.phases, stream, sinks))
        if spec.kind is NodeKind.SOURCE:
            # The firing vectors are port-major, and all of them are waiting
            # from the start.
            bases = accumulate((p.total for p in spec.patterns.outputs), initial=0)
            ins = [
                ([t for v in stimulus[name] for t in v[b : b + p.total]],
                 lambda cycle: sys.maxsize, p.phases)
                for b, p in zip(bases, spec.patterns.outputs)
            ]
            phase, seed, trace = _pass_through, 0, None
        else:
            ins = [
                (streams[e.producer, e.producer_port], m.occupancy.reader(e.id), e.cp.phases)
                for e in prep.ins[name]
            ]
            plan, phase = prep.plans[name], prep.datapaths[name]
            # A fold's accumulator shows its seed (0 without one) until a
            # phase reads tokens.
            seed = plan.fold_init or 0
            fired_fold = plan.mode == "fold" and m.starts[name]
            trace = fold_trace.setdefault(name, []) if fired_fold else None
        cursors = [0] * len(ins)
        for s in m.starts[name]:
            acc = seed
            for ph in range(spec.length):
                bus = []
                for i, (stream, occupancy, cp) in enumerate(ins):
                    c, cur = cp[ph], cursors[i]
                    n = min(c, occupancy(s + ph)) if c else 0
                    bus.append(stream[cur : cur + n] + [0] * (c - n))
                    cursors[i] = cur + n
                words, acc = phase(ph, bus, acc)
                if trace is not None:
                    trace.append(acc)
                for (pp, stream, sinks), v in zip(outs, words):
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


def _pass_through(ph: int, words: list[list[int]], acc: int):
    """A source's phase: its stimulus words, port by port."""
    return words, acc


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
