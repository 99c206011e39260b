"""Seeded synthetic design documents for the patflow benchmark.

Every document comes with the facts the benchmark checks the program's
outputs against.  The generator knows them because it chose them, so none
of them comes from the code under test:

* ``rates``: firings of every non-sink node per graph iteration.  Every
  port of a node moves ``total`` tokens per firing, and a stream carries a
  fixed number of tokens per iteration, so a node's rate is the stream's
  tokens divided by its firing total.  Rates are divided by their common
  factor within each connected component, which makes them minimal.
* ``modules``: the RTL modules emission must produce.  The README's
  lowering rules give two modules per compute node, two per FIFO edge
  (source-fed, or compute-fed with differing patterns), one per pipeline
  edge (compute-fed with equal patterns), none for sink edges, plus the top.
* ``muls``: multiplier instances, which is the estimator's DSP count and
  the number of ``*`` operators in the emitted datapaths.  Each ``mul`` in
  an element function is instantiated once per lane, and a node has as many
  lanes as its patterns' shared non-zero value.

Families (the per-workload sizes live in :mod:`workloads`):

* ``chain``: runs of 4 to 12 maps sharing one pattern, so most compute
  edges are pipeline registers.  The deepest dependency path for its node
  count, which is where topological ordering and per-cycle stepping cost
  the most.
* ``fanout``: one source feeding three parallel branches that a tree of
  ``zipwith`` nodes joins again.  Ports with several consumers and nodes
  with several inputs.
* ``tuple``: diamonds of a two-output ``tuple`` node, two branches and a
  ``zipwith`` join.  Multi-port outputs.
* ``folds``: independent stages, each a source, a few maps and a fold whose
  one-token result feeds a map and a sink.  Multi-phase folds,
  accumulators and several connected components with separate rates.
* ``mismatch``: a chain whose nodes each pick their own firing total and
  refinement of the stream.  Multi-rate firing and a FIFO on nearly every
  edge.

Every document must pass ``validate_graph`` with no diagnostics; the
benchmark fails the run when one does not, because that means this
generator is broken.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

FAMILIES = ("chain", "fanout", "tuple", "folds", "mismatch")

# Tokens per graph iteration on every source's stream.  12 is highly
# composite, so every node has several firing totals and refinements to
# pick from.  Each source fires once per iteration and moves one token per
# cycle, and no node may take longer per iteration, so every design streams
# at exactly STREAM cycles per iteration.  The seed then changes the structure
# of a design but not how long it runs, which keeps the benchmark's cost
# per seed steady.
STREAM = 12
# Upper bound on the active phases of a compute node's firing, which keeps
# firings short; a source's firing is the whole STREAM.
MAX_PHASES = 6

_ELEM_OPS = ("add", "sub", "mul", "max", "min")
_FOLD_OPS = ("add", "max")
_WIDTHS = (8, 12, 16)


@dataclass(frozen=True)
class Design:
    """A generated document plus the outputs the generator expects."""

    doc: dict
    rates: dict[str, int]
    modules: int
    muls: int


@dataclass(frozen=True)
class _Port:
    node: str
    port: int
    pattern: tuple[int, ...]
    stream: int  # tokens per graph iteration leaving this port


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class _DocMaker:
    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.width = rng.choice(_WIDTHS)
        self.nodes: list[dict] = []
        self.edges: list[dict] = []
        self.kind: dict[str, str] = {}
        self.rate: dict[str, Fraction] = {}
        self.component: dict[str, int] = {}
        self.components = 0
        self.modules = 1  # the top module
        self.muls = 0

    # -- patterns ----------------------------------------------------------

    def total(self, stream: int) -> int:
        """A firing total above one token that divides ``stream``."""
        return self.rng.choice([t for t in _divisors(stream) if t > 1] or [1])

    def refine(self, total: int) -> tuple[int, ...]:
        """A 0/n pattern moving ``total`` tokens, maybe with one idle phase.

        An idle phase costs a node ``stream / total`` cycles per iteration
        on top of ``stream / n``; with ``n == 1`` that would exceed the
        sources' STREAM cycles, so those patterns get none.
        """
        n = self.rng.choice([d for d in _divisors(total) if total // d <= MAX_PHASES])
        phases = [n] * (total // n)
        if n > 1 and self.rng.random() < 0.25:
            phases.insert(self.rng.randrange(len(phases) + 1), 0)
        return tuple(phases)

    # -- nodes -------------------------------------------------------------

    def _new(self, prefix: str, kind: str, rate: Fraction, comp: int, **fields) -> str:
        name = f"{prefix}{len(self.nodes)}"
        self.nodes.append({"name": name, "kind": kind, "width": self.width, **fields})
        self.kind[name] = kind
        self.rate[name] = rate
        self.component[name] = comp
        if kind == "compute":
            self.modules += 2
        return name

    def _edge(self, src: _Port, dst: str, dst_port: int, cp: tuple[int, ...]) -> None:
        self.edges.append({"from": f"{src.node}.{src.port}", "to": f"{dst}.{dst_port}"})
        if self.kind[dst] == "sink":
            return
        if self.kind[src.node] == "compute" and src.pattern == cp:
            self.modules += 1  # pipeline register
        else:
            self.modules += 2  # FIFO and its threshold controller

    def source(self) -> _Port:
        stream = STREAM
        pattern = (1,) * stream
        comp = self.components
        self.components += 1
        name = self._new("src", "source", Fraction(stream, sum(pattern)), comp,
                         outputs=[list(pattern)])
        return _Port(name, 0, pattern, stream)

    def _elem_fn(self, arity: int) -> tuple[str, int]:
        """An element function body and its multiplier count."""
        op = self.rng.choice(_ELEM_OPS)
        if arity == 2:
            return f"({op} a b)", int(op == "mul")
        return f"({op} a {self.rng.randint(1, 9)})", int(op == "mul")

    def _compute(self, inputs: list[_Port], pattern: tuple[int, ...], expr: str,
                 out_patterns: list[tuple[int, ...]], muls: int) -> str:
        stream = inputs[0].stream
        if any(p.stream != stream for p in inputs):
            raise ValueError(f"{self.name}: joined streams carry different token counts")
        name = self._new(
            "n", "compute", Fraction(stream, sum(pattern)),
            self.component[inputs[0].node], expr=expr,
            inputs=[list(pattern)] * len(inputs),
            outputs=[list(p) for p in out_patterns],
        )
        for port, src in enumerate(inputs):
            self._edge(src, name, port, pattern)
        self.muls += muls * max(pattern)
        return name

    def map(self, src: _Port, pattern: tuple[int, ...] | None = None) -> _Port:
        pattern = pattern or src.pattern
        body, muls = self._elem_fn(1)
        name = self._compute([src], pattern, f"(map (lambda (a) {body}) (input 0))",
                             [pattern], muls)
        return _Port(name, 0, pattern, src.stream)

    def zip(self, a: _Port, b: _Port, pattern: tuple[int, ...]) -> _Port:
        body, muls = self._elem_fn(2)
        name = self._compute(
            [a, b], pattern,
            f"(zipwith (lambda (a b) {body}) (input 0) (input 1))", [pattern], muls)
        return _Port(name, 0, pattern, a.stream)

    def tuple2(self, src: _Port, pattern: tuple[int, ...]) -> tuple[_Port, _Port]:
        f, mf = self._elem_fn(1)
        g, mg = self._elem_fn(1)
        name = self._compute(
            [src], pattern,
            f"(tuple (map (lambda (a) {f}) (input 0)) (map (lambda (a) {g}) (input 0)))",
            [pattern, pattern], mf + mg)
        return _Port(name, 0, pattern, src.stream), _Port(name, 1, pattern, src.stream)

    def fold(self, src: _Port, pattern: tuple[int, ...]) -> _Port:
        op = self.rng.choice(_FOLD_OPS)
        fn = f"(lambda (a b) ({op} a b))"
        expr = (f"(foldl1 {fn} (input 0))" if self.rng.random() < 0.5
                else f"(foldl {fn} 0 (input 0))")
        out = (0,) * (len(pattern) - 1) + (1,)
        name = self._compute([src], pattern, expr, [out], 0)
        return _Port(name, 0, out, src.stream // sum(pattern))

    def sink(self, src: _Port) -> None:
        name = self._new("out", "sink", Fraction(0), self.component[src.node],
                         inputs=[list(src.pattern)])
        self._edge(src, name, 0, src.pattern)

    # -- result ------------------------------------------------------------

    def finish(self, size: int) -> Design:
        if len(self.nodes) != size:
            raise ValueError(f"{self.name}: built {len(self.nodes)} nodes, not {size}")
        rates: dict[str, int] = {}
        for comp in range(self.components):
            members = [n for n, c in self.component.items()
                       if c == comp and self.kind[n] != "sink"]
            scale = math.lcm(*(self.rate[n].denominator for n in members))
            ints = {n: int(self.rate[n] * scale) for n in members}
            common = math.gcd(*ints.values())
            rates.update({n: v // common for n, v in ints.items()})
        doc = {"meta": {"name": self.name, "iterations": 1},
               "nodes": self.nodes, "edges": self.edges}
        return Design(doc, rates, self.modules, self.muls)


# ---------------------------------------------------------------------------
# Families.  ``size`` counts every node, sources and sinks included.


def _chain(b: _DocMaker, size: int) -> None:
    port = b.source()
    total = sum(port.pattern)
    while len(b.nodes) < size - 1:
        pattern = b.refine(total)
        for _ in range(min(b.rng.randint(4, 12), size - 1 - len(b.nodes))):
            port = b.map(port, pattern)
    b.sink(port)


def _mismatch(b: _DocMaker, size: int) -> None:
    port = b.source()
    for _ in range(size - 2):
        port = b.map(port, b.refine(b.total(port.stream)))
    b.sink(port)


def _fanout(b: _DocMaker, size: int) -> None:
    branches = 3
    # source + branches + (branches - 1) joins + sink, at least one map each
    depth = max(1, (size - 2 - (branches - 1)) // branches)
    src = b.source()
    ends = []
    for _ in range(branches):
        port = src
        for _ in range(depth):
            port = b.map(port, b.refine(b.total(port.stream)))
        ends.append(port)
    total = b.total(src.stream)
    while len(ends) > 1:
        ends = [b.zip(ends[0], ends[1], b.refine(total))] + ends[2:]
    port = ends[0]
    while len(b.nodes) < size - 1:
        port = b.map(port)
    b.sink(port)


def _tuple(b: _DocMaker, size: int) -> None:
    port = b.source()
    while size - 1 - len(b.nodes) >= 4:  # tuple node, two branch maps, join
        pattern = b.refine(b.total(port.stream))
        left, right = b.tuple2(port, pattern)
        left, right = b.map(left), b.map(right)
        port = b.zip(left, right, b.refine(sum(pattern)))
    while len(b.nodes) < size - 1:
        port = b.map(port)
    b.sink(port)


def _folds(b: _DocMaker, size: int) -> None:
    # A stage is source, maps, fold, one map on the fold result, sink.
    while len(b.nodes) < size:
        left = size - len(b.nodes)
        # the last stage takes every node left, so no stage is cut short
        maps = left - 4 if left < 13 else b.rng.randint(2, 5)
        port = b.source()
        for _ in range(maps):
            port = b.map(port, b.refine(b.total(port.stream)))
        port = b.fold(port, b.refine(b.total(port.stream)))
        b.sink(b.map(port))


_MAKERS = {
    "chain": _chain,
    "fanout": _fanout,
    "tuple": _tuple,
    "folds": _folds,
    "mismatch": _mismatch,
}


def generate(family: str, size: int, seed: int) -> Design:
    """The ``family`` design with ``size`` nodes drawn from ``seed``."""
    rng = random.Random(f"{family}/{size}/{seed}")
    b = _DocMaker(rng, f"{family}-{size}-s{seed}")
    _MAKERS[family](b, size)
    return b.finish(size)
