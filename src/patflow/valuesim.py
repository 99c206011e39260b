"""Value-level simulation and clocked-vs-functional equivalence checking.

Two executions of the same graph:

* :func:`eval_combinational` ignores time entirely.  Every node fires its
  full repetition count in topological order, consuming and producing whole
  token streams.  This is the functional meaning of the graph.
* :func:`simulate_clocked` first runs the scheduler of
  :mod:`patflow.schedule` on token counts, which fixes every firing under
  the timing rules the generated hardware implements, and then replays
  concrete values along those firings: node by node, each consumer takes
  as many real tokens as were waiting in its FIFO, and pads the rest of an
  underflowing read with zeros.  What the replay needs of the run, the
  firing starts and the real tokens of every read, is its
  :class:`~patflow.schedule.TokenPlan`.
  Token values never decide a firing, so the plan holds for every
  stimulus, and the graph keeps it per iteration count and gate offset:
  repeated trials at one configuration schedule once.  The first
  replay of a plan also works out where every read starts and ends, its
  zero padding and each sink token's cycle stamp, and keeps that
  :class:`_ReplayLayout` with the plan, so a later trial does only the
  work that depends on its stimulus.

The two evaluate a node in different forms, both derived once per graph
on its :class:`~patflow.prepared.PreparedGraph`.  The functional side runs
the node's body compiled from its static shapes into one loop over all of
its firings (:func:`~patflow.exprs.compile_reference`).  The replay runs
the node's datapath module as the RTL emits it, compiled into one loop
over all of the node's steps (:func:`~patflow.rtl.lower.compile_datapath`).
Both check the stimulus the same way.

:func:`equivalence_check` runs both on random stimulus and compares the
token streams delivered to each sink input, so it checks the unrolled
hardware form against the functional meaning: a dropped lane, a wrong
constant fold or a mis-seeded fold shows as a mismatch, as does a token
moved at the wrong time.  With ``gate_offset=0`` the two must agree on
every legal graph; a negative offset corrupts the firing thresholds and
lets tests confirm that the comparison actually detects premature firings.
A trial works on flat per-port token streams from start to end: it draws
its tokens straight into the sources' streams, which are valid by
construction and not checked again, and reads the clocked streams without
the stamps and copies a :class:`SimResult` assembles on first read.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, islice, pairwise, repeat
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


class SimResult:
    """Outcome of a clocked value simulation.

    ``cycles`` and ``underflow_edges`` come with the result.  The rest is
    assembled from the replayed streams on first read, so a caller that
    reads only the streams, as :func:`equivalence_check` does, never builds
    it: ``edge_arrivals`` and ``arrivals`` give the ``(cycle, value)``
    pairs delivered to each sink input edge and to each sink (in arrival
    order), ``firing_starts`` the start cycle of every firing per node, and
    ``fold_trace`` each fold's accumulator after every phase.
    """

    def __init__(self, g: Graph, plan: TokenPlan, streams: dict, folds: dict):
        self.cycles = plan.cycles
        # Copies, here and below: the plan may be kept and read again.
        self.underflow_edges = plan.underflows.copy()
        self._g, self._plan, self._streams, self._folds = g, plan, streams, folds

    @cached_property
    def edge_arrivals(self) -> dict[str, list[tuple[int, int]]]:
        layout = self._plan.layout
        return {eid: list(zip(layout.stamps[key], self._streams[key]))
                for eid, key in layout.arrivals}

    @cached_property
    def arrivals(self) -> dict[str, list[tuple[int, int]]]:
        merged = {}
        for sink in self._g.sinks:
            edges = self._g.prepared.ins[sink.name]
            merged[sink.name] = [tv for e in edges for tv in self.edge_arrivals[e.id]]
            if len(edges) > 1:
                merged[sink.name].sort(key=itemgetter(0))
        return merged

    @cached_property
    def firing_starts(self) -> dict[str, list[int]]:
        return {name: starts.copy() for name, starts in self._plan.starts.items()}

    @cached_property
    def fold_trace(self) -> dict[str, list[int]]:
        # In the order the nodes first fired, as a clocked run records them.
        return {name: self._folds[name] for name in self._plan.layout.folds}

    def values(self, sink: str) -> list[int]:
        """Token values delivered to ``sink`` in arrival order."""
        return [v for _, v in self.arrivals[sink]]

    _FIELDS = ("arrivals", "edge_arrivals", "cycles", "firing_starts", "underflow_edges",
               "fold_trace")

    def __eq__(self, other):
        if other.__class__ is not SimResult:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    __hash__ = None

    def __repr__(self):
        return "SimResult(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS) + ")"


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


def _draw(g: Graph, iterations: int, seed: int | None) -> dict[str, list[int]]:
    """Every source's tokens for ``iterations`` rounds, in firing order.

    A token is what ``rng._randbelow(2**width)`` returns, the draw that
    ``randint(0, 2**width - 1)`` makes: ``getrandbits(width + 1)`` again
    until it is below ``2**width``, here run by C iterators.  The sources
    draw in turn from one generator seeded with ``seed``.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    getrandbits = random.Random(seed).getrandbits
    reps = g.prepared.reps
    tokens = {}
    for src in g.sources:
        bound = 1 << src.width
        count = reps[src.name] * iterations * sum(p.total for p in src.patterns.outputs)
        tokens[src.name] = list(islice(
            filter(bound.__gt__, map(getrandbits, repeat(src.width + 1))), count))
    return tokens


def _vectors(spec: NodeSpec, tokens: list[int]) -> list[list[int]]:
    """A source's firing vectors, cut from its tokens in firing order."""
    per = sum(p.total for p in spec.patterns.outputs)
    return [tokens[k : k + per] for k in range(0, len(tokens), per)]


def _stimulus(g: Graph, tokens: dict[str, list[int]]) -> dict[str, list[list[int]]]:
    """Every source's firing vectors, from its tokens (:func:`_draw`)."""
    return {name: _vectors(g.nodes[name], t) for name, t in tokens.items()}


def random_stimulus(
    g: Graph, iterations: int = 1, seed: int | None = None
) -> dict[str, list[list[int]]]:
    """Uniform random tokens for every source, ``iterations`` rounds deep,
    as firing vectors.

    Each token is ``rng.randint(0, 2**width - 1)`` on
    ``random.Random(seed)``.  :func:`equivalence_check` draws a trial's
    tokens the same way but keeps them as flat port streams, so the
    stimulus of a counterexample is what this returns for its seed.
    """
    return _stimulus(g, _draw(g, iterations, seed))


def _source_ports(g: Graph, tokens: dict[str, list[int]]) -> dict[tuple[str, int], list[int]]:
    """Every source's token stream per output port, from its tokens in
    firing order (by source name); a firing vector is port-major."""
    ports = {}
    for name, stream in tokens.items():
        src = g.nodes[name]
        totals = [p.total for p in src.patterns.outputs]
        if len(totals) == 1:
            ports[name, 0] = stream
            continue
        vecs = _vectors(src, stream)
        for port, (b, e) in enumerate(pairwise(accumulate(totals, initial=0))):
            ports[name, port] = [t for v in vecs for t in v[b:e]]
    return ports


def _stimulus_ports(
    g: Graph, stimulus: dict[str, list[list[int]]]
) -> dict[tuple[str, int], list[int]]:
    """The sources' port streams of a checked stimulus."""
    return _source_ports(g, {name: list(chain.from_iterable(vecs))
                             for name, vecs in stimulus.items()})


def _combinational_streams(
    g: Graph, sources: dict[tuple[str, int], list[int]], iterations: int
) -> dict[tuple[str, int], list[int]]:
    """Token stream per producer port under the untimed functional
    semantics, from the sources' port streams.

    Node by node, in topological order, one call of the node's compiled
    loop (:attr:`~patflow.prepared.PreparedGraph.reference`) cuts every
    firing's input vectors from its producers' streams and gives each of
    its output ports' streams.  Callers only read the streams, which the
    edges out of one port share.
    """
    ports = dict(sources)
    for name, loop, reps, keys in g.prepared.reference:
        for port, stream in enumerate(loop(reps * iterations, *map(ports.__getitem__, keys))):
            ports[name, port] = stream
    return ports


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
    ports = _combinational_streams(g, _stimulus_ports(g, stimulus), iterations)
    ins = g.prepared.ins
    return {sink.name: [t for e in ins[sink.name] for t in ports[e.producer, e.producer_port]]
            for sink in g.sinks}


class _Drawn:
    """The tokens that :func:`equivalence_check` drew for one trial, with
    the sources' port streams they make and their iteration count.  They
    are valid by construction, so :func:`simulate_clocked` takes the port
    streams as they are and checks nothing again.  Only a counterexample
    cuts the tokens into firing vectors (:func:`_stimulus`)."""

    __slots__ = ("tokens", "iterations", "ports")

    def __init__(self, g: Graph, iterations: int, seed: int):
        self.tokens, self.iterations = _draw(g, iterations, seed), iterations
        self.ports = _source_ports(g, self.tokens)


def simulate_clocked(
    g: Graph,
    stimulus: dict[str, list[list[int]]] | None = None,
    *,
    iterations: int | None = None,
    gate_offset: int = 0,
    horizon: int | None = None,
    capacities: dict[str, int] | None = None,
) -> SimResult:
    """Cycle-accurate run with concrete token values: the scheduler fixes
    every firing on token counts, then the values are replayed along them.

    The run's :class:`~patflow.schedule.TokenPlan` depends only on
    ``iterations`` and ``gate_offset``, so the graph keeps recent plans
    (:meth:`~patflow.prepared.PreparedGraph.token_plan`) and a repeated
    configuration schedules nothing.  A call with ``horizon`` or
    ``capacities`` runs its own schedule and keeps nothing.

    The stimulus is checked (and firing vectors flattened into port
    streams) unless :func:`equivalence_check` drew it.  The replay
    (:func:`_replay`) fills the streams; the result assembles its stamps
    and copies from them only when they are read.

    Raises :class:`~patflow.errors.FifoOverflow` when ``capacities`` are
    supplied and any FIFO exceeds its allocation; records (rather than
    raises on) underflows, which can only happen under a non-zero
    ``gate_offset``.
    """
    if isinstance(stimulus, _Drawn):
        iterations, streams = stimulus.iterations, dict(stimulus.ports)
    else:
        stimulus = {} if stimulus is None else stimulus
        iterations = _stimulus_iterations(g, stimulus, iterations)
        streams = _stimulus_ports(g, stimulus)
    # Datapaths are planned before the run, so a body that cannot be
    # planned fails ahead of any scheduling error.
    g.prepared.datapaths
    if horizon is None and capacities is None:
        plan = g.prepared.token_plan(iterations, gate_offset)
    else:
        plan = TokenPlan(Machine(
            g, iterations, gate_offset=gate_offset, horizon=horizon, capacities=capacities
        ).run())
    return SimResult(g, plan, streams, _replay(g, plan, streams))


class _ReplayLayout:
    """Everything a replay reads of its token plan, worked out once per plan
    (kept as :attr:`~patflow.schedule.TokenPlan.layout`), so a replay does
    only the work that depends on the stimulus.

    * ``computes``: per compute node in topological order, its name, its
      firing count and, per input edge, the producer port, how the steps
      its compiled loop evaluates (``loop.phases`` of every firing, see
      :func:`~patflow.rtl.lower.compile_datapath`) read that port's
      stream, and the zeros padding each read (``None`` when none is
      padded).  A read is the tokens every step takes when each takes the
      next full bus, and otherwise the slice of the stream each step
      takes.  A fold evaluates every phase, and one that reads nothing
      shows a full bus of the stream's next unread words (zeros past its
      end), as a FIFO's ``dout`` does.
    * ``arrivals``: the edges into sinks, each with its producer port.
    * ``stamps``: per producer port that feeds a sink, the cycle ``s + ph``
      of each token it writes in phase ``ph`` of the firing started at
      ``s``.
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
            phases = prep.datapaths[name].phases
            ins = []
            for e, counts in zip(prep.ins[name], reads):
                key = (e.producer, e.producer_port)
                if counts is None and all(e.cp.phases[ph] for ph in phases):
                    ins.append((key, e.cp.value, None))
                    continue
                producer = g.nodes[e.producer].patterns.outputs[e.producer_port]
                end = len(plan.starts[e.producer]) * producer.total
                slices, pads, at = [], [], 0
                for f in range(firings):
                    for ph in phases:
                        got = e.cp.phases[ph] if counts is None else counts[f * spec.length + ph]
                        shown = got if e.cp.phases[ph] else min(e.cp.value, end - at)
                        slices.append(slice(at, at + shown))
                        pads.append([0] * (e.cp.value - shown))
                        at += got
                ins.append((key, slices, pads if any(pads) else None))
            self.computes.append((name, firings, ins))
        self.arrivals = []
        self.stamps = {}
        for e in g.edges:
            if g.nodes[e.consumer].kind is not NodeKind.SINK:
                continue
            key = (e.producer, e.producer_port)
            self.arrivals.append((e.id, key))
            phases = g.nodes[e.producer].patterns.outputs[e.producer_port].phases
            self.stamps[key] = [s + ph for s in plan.starts[e.producer]
                                for ph, c in enumerate(phases) for _ in range(c)]
        self.folds = sorted(
            (name for name, dp in prep.plans.items() if dp.mode == "fold" and plan.starts[name]),
            key=lambda name: plan.starts[name][0])


def _replay(
    g: Graph, plan: TokenPlan, streams: dict[tuple[str, int], list[int]]
) -> dict[str, list[int] | None]:
    """Concrete values along the firings of a token plan: the value core of
    a clocked simulation, which builds no part of its :class:`SimResult`.

    ``streams`` holds the sources' port streams and receives every compute
    port's.  Compute nodes are replayed in topological order.  Every step a
    node evaluates takes, from the head of each input's stream, as many
    real tokens as the plan says were waiting in its FIFO, padded with
    zeros to a full bus, as the plan's :class:`_ReplayLayout` cuts them.
    The node's compiled loop
    (:attr:`~patflow.prepared.PreparedGraph.datapaths`) runs over all of
    those buses and gives every output port's stream, and a fold's trace,
    which this returns per compute node (``None`` if it does not fold).
    """
    layout = plan.layout
    if layout is None:
        layout = plan.layout = _ReplayLayout(g, plan)
    datapaths = g.prepared.datapaths
    fold_trace: dict[str, list[int] | None] = {}
    for name, firings, ins in layout.computes:
        gathered = []
        for key, cut, pads in ins:
            stream = streams[key]
            if cut.__class__ is int:
                gathered.append(zip(*[iter(stream)] * cut))
            elif pads is None:
                gathered.append(map(stream.__getitem__, cut))
            else:
                gathered.append(map(add, map(stream.__getitem__, cut), pads))
        outs, fold_trace[name] = datapaths[name](firings, *gathered)
        for port, out in enumerate(outs):
            streams[name, port] = out
    return fold_trace


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
    is negative, and from the first trial when ``iterations`` is.

    A trial works on flat port streams from start to end.  It draws its
    tokens straight into the sources' streams (as :func:`random_stimulus`
    draws them, on a seed taken from ``random.Random(seed)``), which
    :func:`simulate_clocked` then takes without checking them again.  The
    functional reference and the clocked replay each extend those streams,
    and the streams each sink edge's producer port carries are compared;
    no part of the :class:`SimResult` is assembled.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = random.Random(seed)
    report = EquivalenceReport(trials=trials, mismatches=0, gate_offset=gate_offset)
    for _ in range(trials):
        stim = _Drawn(g, iterations, rng.getrandbits(64))
        expected = _combinational_streams(g, stim.ports, iterations)
        clocked = simulate_clocked(g, stim, iterations=iterations, gate_offset=gate_offset)
        bad = False
        for eid, key in clocked._plan.layout.arrivals:
            if expected[key] != clocked._streams[key]:
                bad = True
                if len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append(
                        {
                            "edge": eid,
                            "stimulus": _stimulus(g, stim.tokens),
                            "expected": expected[key],
                            "clocked": clocked._streams[key],
                            "underflows": clocked.underflow_edges,
                        }
                    )
        report.mismatches += bad
    return report
