"""Value-level simulation and clocked-vs-functional equivalence checking.

Two executions of the same graph:

* :func:`eval_combinational` ignores time entirely.  Every node fires its
  full repetition count in topological order, consuming and producing whole
  token streams.  This is the functional meaning of the graph.
* :func:`simulate_clocked` first runs the counts-only machine of
  :mod:`patflow.schedule`, which fixes every firing exactly as the
  generated hardware would take it, and then replays concrete values along
  those firings: node by node, each consumer takes as many real tokens as
  were waiting in its FIFO, and pads the rest of an underflowing read with
  zeros.  What the replay needs of the run, the firing starts and the real
  tokens of every read, is its :class:`~patflow.schedule.TokenPlan`.
  Token values never decide a firing, so the plan holds for every
  stimulus, and the graph keeps it per iteration count and gate offset:
  repeated trials at one configuration run the machine once.  The first
  replay of a plan also works out where every read starts and ends, its
  zero padding and each sink token's cycle stamp, and keeps that
  :class:`_ReplayLayout` with the plan, so a later trial does only the
  work that depends on its stimulus.

The two evaluate a node in different forms, both derived once per graph
on its :class:`~patflow.prepared.PreparedGraph`.  The functional side maps
the node's body, compiled into one generated function
(:func:`~patflow.exprs.compile_expr`), over all of its firings at once.
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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter

from .errors import ShapeMismatch
from .graphs import Graph, NodeKind, NodeSpec
from .schedule import Machine, TokenPlan

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
    """Uniform random tokens for every source, ``iterations`` rounds deep.

    Each token is ``rng.randint(0, 2**width - 1)``, drawn through the
    ``_randbelow`` that ``randint`` calls, so seeded stimulus is what
    ``randint`` gives.
    """
    rng = random.Random(seed)
    draw = rng._randbelow
    reps = g.prepared.reps
    out: dict[str, list[list[int]]] = {}
    for src in g.sources:
        n = 1 << src.width
        per_firing = range(sum(p.total for p in src.patterns.outputs))
        out[src.name] = [
            [draw(n) for _ in per_firing] for _ in range(reps[src.name] * iterations)
        ]
    return out


def _source_streams(spec: NodeSpec, vecs: list[list[int]]) -> list[list[int]]:
    """A source's token stream per output port: its firing vectors, which
    are port-major, flattened."""
    if len(spec.patterns.outputs) == 1:
        return [list(chain.from_iterable(vecs))]
    bases = list(accumulate((p.total for p in spec.patterns.outputs), initial=0))
    return [[t for v in vecs for t in v[b:e]] for b, e in zip(bases, bases[1:])]


def _flatten(values: list) -> list[int]:
    """One port's tokens from its per-firing values, each an int or a
    tuple of ints."""
    if all(v.__class__ is int for v in values):
        return values
    return [x for v in values for x in ((v,) if isinstance(v, int) else v)]


def _combinational_streams(
    g: Graph, stimulus: dict[str, list[list[int]]], iterations: int
) -> dict[str, list[int]]:
    """Token stream per edge id under the untimed functional semantics.

    Node by node, every firing's input vectors are cut from the producers'
    streams at once and the compiled body is mapped over them.  The edges
    out of one producer port share its stream, which callers only read.
    """
    prep = g.prepared
    ports: dict[tuple[str, int], list[int]] = {}
    for name in prep.topo:
        spec = g.nodes[name]
        if spec.kind is NodeKind.SINK:
            continue
        if spec.kind is NodeKind.SOURCE:
            for port, stream in enumerate(_source_streams(spec, stimulus[name])):
                ports[name, port] = stream
            continue
        firings = prep.reps[name] * iterations
        args = []
        for e in prep.ins[name]:
            need, stream = e.cp.total, ports[e.producer, e.producer_port]
            args.append([tuple(stream[k : k + need]) for k in range(0, firings * need, need)]
                        if need else [()] * firings)
        results = list(map(prep.bodies[name], zip(*args) if args else repeat((), firings)))
        if len(spec.patterns.outputs) == 1:
            ports[name, 0] = _flatten(results)
        else:
            for port in range(len(spec.patterns.outputs)):
                ports[name, port] = _flatten([r[port] for r in results])
    return {e.id: ports[e.producer, e.producer_port] for e in g.edges}


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

    The run's :class:`~patflow.schedule.TokenPlan` depends only on
    ``iterations`` and ``gate_offset``, so the graph keeps recent plans
    (:meth:`~patflow.prepared.PreparedGraph.token_plan`) and a repeated
    configuration runs no machine.  A call with ``horizon`` or
    ``capacities`` runs its own machine and keeps nothing.

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
    if horizon is None and capacities is None:
        plan = g.prepared.token_plan(iterations, gate_offset)
    else:
        plan = TokenPlan(Machine(
            g, iterations, gate_offset=gate_offset, horizon=horizon, capacities=capacities
        ).run())
    return _replay(g, plan, stimulus)


class _ReplayLayout:
    """Everything a replay reads of its token plan, worked out once per plan
    (kept as :attr:`~patflow.schedule.TokenPlan.layout`), so a replay does
    only the work that depends on the stimulus.

    * ``computes``: per compute node in topological order, its name, its
      firing count and phase count, and per input edge the producer port,
      the slice of that port's stream each (firing, phase) reads, and the
      zeros padding each read (``None`` when every read was full); per
      output port, which (firing, phase) steps write it, as their token
      counts (``None`` when all do).
    * ``arrivals``: the edges into sinks, each with its producer port.
    * ``stamps``: per producer port that feeds a sink, the cycle ``s + ph``
      of each step that writes it, for the firing started at ``s`` and
      phase ``ph``: one entry per token for a source, whose phases write
      their pattern's count, and one per step for a compute node, whose
      steps write the words its datapath gives.
    * ``folds``: the fold nodes that fired, in the order they first did.
    """

    __slots__ = ("computes", "arrivals", "stamps", "folds")

    def __init__(self, g: Graph, plan: TokenPlan):
        prep = g.prepared
        self.computes = []
        for name, reads in plan.reads.items():
            spec = g.nodes[name]
            if spec.kind is NodeKind.SOURCE:
                continue
            firings = len(plan.starts[name])
            ins = []
            for e, counts in zip(prep.ins[name], reads):
                asked = e.cp.phases * firings
                ends = list(accumulate(asked if counts is None else counts, initial=0))
                slices = list(map(slice, ends, ends[1:]))
                pads = None if counts is None else [[0] * (c - n) for c, n in zip(asked, counts)]
                ins.append(((e.producer, e.producer_port), slices, pads))
            ports = [None if all(p.phases) else p.phases * firings
                     for p in spec.patterns.outputs]
            self.computes.append((name, firings, spec.length, ins, ports))
        self.arrivals = []
        self.stamps = {}
        for e in g.edges:
            if g.nodes[e.consumer].kind is not NodeKind.SINK:
                continue
            key = (e.producer, e.producer_port)
            self.arrivals.append((e.id, key))
            producer = g.nodes[e.producer]
            phases = producer.patterns.outputs[e.producer_port].phases
            per_token = producer.kind is NodeKind.SOURCE
            self.stamps[key] = [s + ph for s in plan.starts[e.producer]
                                for ph, c in enumerate(phases) if c
                                for _ in range(c if per_token else 1)]
        self.folds = sorted(
            (name for name, dp in prep.plans.items() if dp.mode == "fold" and plan.starts[name]),
            key=lambda name: plan.starts[name][0])


def _replay(g: Graph, plan: TokenPlan, stimulus: dict[str, list[list[int]]]) -> SimResult:
    """Concrete values along the firings of a token plan.

    A source's stream per output port is its stimulus, flattened.  Compute
    nodes are replayed in topological order, each in three steps.  Gather:
    every (firing, phase) takes, from the head of each input's stream, as
    many real tokens as the plan says were waiting in its FIFO, padded with
    zeros to the phase's count.  Evaluate: the node's compiled datapath
    (:attr:`~patflow.prepared.PreparedGraph.datapaths`) runs on each
    phase's words in turn.  Scatter: the words of the phases that write a
    port make its stream.  Tokens delivered to a sink are stamped with the
    cycle ``s + ph`` of firing start ``s`` and phase ``ph``.  Where each
    read starts and ends, and the cycle of every step, come from the plan's
    :class:`_ReplayLayout`.
    """
    layout = plan.layout
    if layout is None:
        layout = plan.layout = _ReplayLayout(g, plan)
    prep = g.prepared
    streams: dict[tuple[str, int], list[int]] = {}
    for src in g.sources:
        for port, stream in enumerate(_source_streams(src, stimulus[src.name])):
            streams[src.name, port] = stream
    # The cycle of each token a port delivers to a sink.
    stamps = dict(layout.stamps)
    fold_trace: dict[str, list[int]] = {}
    for name, firings, length, ins, ports in layout.computes:
        gathered = []
        for key, slices, pads in ins:
            chunks = list(map(streams[key].__getitem__, slices))
            gathered.append(chunks if pads is None else list(map(add, chunks, pads)))
        buses = zip(*gathered) if gathered else repeat((), firings * length)
        dp, phase = prep.plans[name], prep.datapaths[name]
        # A fold's accumulator shows its seed (0 without one) until a phase
        # reads tokens.
        seed = dp.fold_init or 0
        if length == 1:
            outs = [phase(0, x, seed)[0] for x in buses]
        else:
            trace = fold_trace.setdefault(name, []) if dp.mode == "fold" else None
            outs = []
            for _ in range(firings):
                acc = seed
                for ph in range(length):
                    words, acc = phase(ph, next(buses), acc)
                    outs.append(words)
                    if trace is not None:
                        trace.append(acc)
        for port, written in enumerate(ports):
            steps = outs if written is None else list(compress(outs, written))
            streams[name, port] = [x for w in steps for x in w[port]]
            if (name, port) in stamps:
                stamps[name, port] = [t for t, w in zip(stamps[name, port], steps) for _ in w[port]]

    edge_arrivals = {eid: list(zip(stamps[key], streams[key])) for eid, key in layout.arrivals}
    merged: dict[str, list[tuple[int, int]]] = {}
    for sink in g.sinks:
        edges = prep.ins[sink.name]
        merged[sink.name] = [tv for e in edges for tv in edge_arrivals[e.id]]
        if len(edges) > 1:
            merged[sink.name].sort(key=itemgetter(0))
    return SimResult(
        arrivals=merged,
        edge_arrivals=edge_arrivals,
        cycles=plan.cycles,
        # Copies: the plan may be kept and read again.
        firing_starts={name: starts.copy() for name, starts in plan.starts.items()},
        underflow_edges=plan.underflows.copy(),
        # In the order the nodes first fired, as a clocked run records them.
        fold_trace={name: fold_trace[name] for name in layout.folds},
    )


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
