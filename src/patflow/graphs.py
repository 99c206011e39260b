"""Dataflow graph construction, validation, and balance analysis.

A graph is a set of named nodes (sources, sinks, and compute nodes with a
functional body) joined by directed edges.  Every edge carries the producer
port's production pattern and the consumer port's consumption pattern; the
patterns are owned by the ports, so an edge can never disagree with its
endpoints.

Graph documents are plain JSON::

    {
      "meta":  {"name": "dotp", "iterations": 1},
      "nodes": [
        {"name": "xs", "kind": "source", "width": 18, "outputs": [[5,5,5,5]]},
        {"name": "zw", "kind": "compute", "width": 18,
         "expr": "(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))",
         "inputs": [[5,5,5,5], [5,5,5,5]], "outputs": [[5,5,5,5]]},
        ...
      ],
      "edges": [{"from": "xs.0", "to": "zw.0"}, ...]
    }

Construction (:func:`build_graph`) raises on structural problems that make
the graph unusable; semantic checks (:func:`validate_graph`) never raise and
instead return the full list of findings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    CycleDetected,
    DanglingEdge,
    Diagnostic,
    DocumentError,
    DuplicatePort,
    InconsistentRates,
    ShapeMismatch as ShapeMismatchError,
    UnknownEdge,
    UnknownNode,
)
from .exprs import (
    Expr,
    Foldl,
    Foldl1,
    InputRef,
    Proj,
    Scalar,
    Shape,
    Tuple,
    TupleShape,
    Vector,
    children,
    infer_shape,
    parse_expr,
)
from .patterns import AccessPattern, PatternSet, validate_pattern

if TYPE_CHECKING:
    from .prepared import PreparedGraph

__all__ = [
    "NodeKind",
    "NodeSpec",
    "EdgeSpec",
    "Graph",
    "build_graph",
    "validate_graph",
    "compute_repetition_vector",
    "contains_fold",
    "root_fold",
]


class NodeKind(Enum):
    SOURCE = "source"
    SINK = "sink"
    COMPUTE = "compute"


@dataclass(frozen=True)
class NodeSpec:
    """One dataflow node.

    ``body`` is present exactly for compute nodes.  ``patterns.inputs`` and
    ``patterns.outputs`` give one access pattern per port, in port order.
    """

    name: str
    kind: NodeKind
    width: int
    patterns: PatternSet
    body: Expr | None = None

    @property
    def length(self) -> int:
        """Execution time of one firing in cycles."""
        return self.patterns.length

    def input_shapes(self) -> list[Shape]:
        return [Vector(p.total) for p in self.patterns.inputs]


@dataclass(frozen=True)
class EdgeSpec:
    """A directed edge with its (pp, cp) pattern pair.

    ``pp`` always equals the producer port's output pattern and ``cp`` the
    consumer port's input pattern; :func:`build_graph` fills them in.
    """

    producer: str
    producer_port: int
    consumer: str
    consumer_port: int
    pp: AccessPattern
    cp: AccessPattern

    @cached_property
    def id(self) -> str:
        return (
            f"{self.producer}.{self.producer_port}"
            f"->{self.consumer}.{self.consumer_port}"
        )

    def __str__(self) -> str:
        return self.id


@dataclass
class Graph:
    """A fully linked dataflow graph.

    A graph is immutable once :func:`build_graph` returns it: every pass
    reads the facts it derives from :attr:`prepared`, which is computed from
    the nodes and edges once and never refreshed.
    """

    name: str
    nodes: dict[str, NodeSpec]
    edges: list[EdgeSpec]
    iterations: int = 1

    _prepared: PreparedGraph | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- membership helpers ------------------------------------------------

    @property
    def sources(self) -> list[NodeSpec]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.SOURCE]

    @property
    def sinks(self) -> list[NodeSpec]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.SINK]

    @property
    def computes(self) -> list[NodeSpec]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.COMPUTE]

    @property
    def prepared(self) -> PreparedGraph:
        """The :class:`~patflow.prepared.PreparedGraph` of this graph."""
        if self._prepared is None:
            from .prepared import PreparedGraph

            self._prepared = PreparedGraph(self)
        return self._prepared

    def in_edges(self, name: str) -> list[EdgeSpec]:
        """Edges into ``name``, ordered by consumer port."""
        return list(self.prepared.ins.get(name, ()))

    def out_edges(self, name: str, port: int | None = None) -> list[EdgeSpec]:
        """Edges out of ``name`` (optionally one port), in document order."""
        if port is None:
            return [e for e in self.edges if e.producer == name]
        return list(self.prepared.outs.get((name, port), ()))

    def edge(self, selector: str) -> EdgeSpec:
        """Look up an edge by its ``"a.0->b.1"`` id."""
        for e in self.edges:
            if e.id == selector:
                return e
        raise UnknownEdge(f"no edge '{selector}'; known: {[e.id for e in self.edges]}")

    def topo_order(self) -> list[str]:
        """Node names in topological order (document order among ready nodes).

        Raises
        ------
        CycleDetected
            If the graph has a directed cycle.
        """
        return self.prepared.topo


# ---------------------------------------------------------------------------
# Document parsing


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DocumentError(msg)


def _parse_port_ref(text, what: str) -> tuple[str, int]:
    _require(isinstance(text, str), f"{what} must be a string 'node.port'")
    node, dot, port = text.rpartition(".")
    _require(bool(dot) and bool(node), f"{what} '{text}' is not of the form 'node.port'")
    try:
        idx = int(port)
    except ValueError:
        raise DocumentError(f"{what} '{text}' has a non-integer port") from None
    _require(idx >= 0, f"{what} '{text}' has a negative port")
    return node, idx


def _parse_patterns(raw, what: str) -> tuple[AccessPattern, ...]:
    _require(isinstance(raw, list), f"{what} must be a list of integer arrays")
    out = []
    for i, arr in enumerate(raw):
        _require(
            isinstance(arr, list) and all(isinstance(v, int) for v in arr),
            f"{what}[{i}] must be an array of integers",
        )
        out.append(validate_pattern(arr))
    return tuple(out)


def build_graph(doc: dict) -> Graph:
    """Link a graph document into a :class:`Graph`.

    Raises
    ------
    DocumentError
        For schema-shape problems (wrong types, missing fields).
    PatternError
        For invalid access patterns.
    ExprSyntaxError
        For unparseable node bodies.
    UnknownNode, DuplicatePort, DanglingEdge
        For edges that cannot be linked.
    """
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    meta = doc.get("meta", {})
    _require(isinstance(meta, dict), "'meta' must be an object")
    name = meta.get("name", "design")
    _require(isinstance(name, str) and name != "", "'meta.name' must be a non-empty string")
    iterations = meta.get("iterations", 1)
    _require(
        isinstance(iterations, int) and iterations >= 1,
        "'meta.iterations' must be a positive integer",
    )

    raw_nodes = doc.get("nodes")
    _require(isinstance(raw_nodes, list), "'nodes' must be a list")
    nodes: dict[str, NodeSpec] = {}
    # Each distinct body text is parsed once; nodes with equal text share
    # the immutable tree.
    parsed: dict[str, Expr] = {}
    for i, rn in enumerate(raw_nodes):
        _require(isinstance(rn, dict), f"nodes[{i}] must be an object")
        nname = rn.get("name")
        _require(isinstance(nname, str) and nname != "", f"nodes[{i}] needs a 'name'")
        _require(nname not in nodes, f"duplicate node name '{nname}'")
        kind_raw = rn.get("kind")
        _require(isinstance(kind_raw, str), f"node '{nname}' needs a 'kind'")
        try:
            kind = NodeKind(kind_raw.lower())
        except ValueError:
            raise DocumentError(
                f"node '{nname}' has unknown kind '{kind_raw}'"
                " (expected source, sink, or compute)"
            ) from None
        width = rn.get("width")
        _require(
            isinstance(width, int) and width >= 1,
            f"node '{nname}' needs a positive integer 'width'",
        )
        inputs = _parse_patterns(rn.get("inputs", []), f"node '{nname}' inputs")
        outputs = _parse_patterns(rn.get("outputs", []), f"node '{nname}' outputs")

        body = None
        if kind is NodeKind.COMPUTE:
            expr_text = rn.get("expr")
            _require(
                isinstance(expr_text, str),
                f"compute node '{nname}' needs an 'expr' string",
            )
            body = parsed.get(expr_text)
            if body is None:
                body = parsed[expr_text] = parse_expr(expr_text)
            _require(len(outputs) >= 1, f"compute node '{nname}' needs output patterns")
        elif kind is NodeKind.SOURCE:
            _require("expr" not in rn, f"source node '{nname}' takes no 'expr'")
            _require(not inputs, f"source node '{nname}' takes no input patterns")
            _require(len(outputs) >= 1, f"source node '{nname}' needs output patterns")
        else:  # sink
            _require("expr" not in rn, f"sink node '{nname}' takes no 'expr'")
            _require(not outputs, f"sink node '{nname}' takes no output patterns")
            _require(len(inputs) >= 1, f"sink node '{nname}' needs input patterns")

        nodes[nname] = NodeSpec(
            name=nname,
            kind=kind,
            width=width,
            patterns=PatternSet(inputs=inputs, outputs=outputs),
            body=body,
        )

    raw_edges = doc.get("edges")
    _require(isinstance(raw_edges, list), "'edges' must be a list")
    edges: list[EdgeSpec] = []
    seen_inputs: set[tuple[str, int]] = set()
    for i, re_ in enumerate(raw_edges):
        _require(isinstance(re_, dict), f"edges[{i}] must be an object")
        prod, prod_port = _parse_port_ref(re_.get("from"), f"edges[{i}].from")
        cons, cons_port = _parse_port_ref(re_.get("to"), f"edges[{i}].to")
        if prod not in nodes:
            raise UnknownNode(f"edges[{i}].from references unknown node '{prod}'")
        if cons not in nodes:
            raise UnknownNode(f"edges[{i}].to references unknown node '{cons}'")
        pnode, cnode = nodes[prod], nodes[cons]
        if pnode.kind is NodeKind.SINK:
            raise DanglingEdge(f"edges[{i}]: sink node '{prod}' cannot produce")
        if cnode.kind is NodeKind.SOURCE:
            raise DanglingEdge(f"edges[{i}]: source node '{cons}' cannot consume")
        if not prod_port < len(pnode.patterns.outputs):
            raise DanglingEdge(
                f"edges[{i}]: '{prod}' has no output port {prod_port}"
            )
        if not cons_port < len(cnode.patterns.inputs):
            raise DanglingEdge(
                f"edges[{i}]: '{cons}' has no input port {cons_port}"
            )
        if (cons, cons_port) in seen_inputs:
            raise DuplicatePort(
                f"edges[{i}]: input port {cons}.{cons_port} is already driven"
            )
        seen_inputs.add((cons, cons_port))
        edges.append(
            EdgeSpec(
                producer=prod,
                producer_port=prod_port,
                consumer=cons,
                consumer_port=cons_port,
                pp=pnode.patterns.outputs[prod_port],
                cp=cnode.patterns.inputs[cons_port],
            )
        )

    # Every declared port must be wired: consumers need their data, and a
    # producer port with no edge would silently drop tokens.
    driven = {(e.producer, e.producer_port) for e in edges}
    for n in nodes.values():
        for port in range(len(n.patterns.inputs)):
            if (n.name, port) not in seen_inputs:
                raise DanglingEdge(f"input port {n.name}.{port} is not driven")
        for port in range(len(n.patterns.outputs)):
            if (n.name, port) not in driven:
                raise DanglingEdge(f"output port {n.name}.{port} feeds nothing")

    return Graph(name=name, nodes=nodes, edges=edges, iterations=iterations)


# ---------------------------------------------------------------------------
# Body analysis helpers


def contains_fold(e: Expr) -> bool:
    """True when any fold appears anywhere in ``e``."""
    return isinstance(e, (Foldl, Foldl1)) or any(contains_fold(c) for c in children(e))


def root_fold(e: Expr) -> Foldl | Foldl1 | None:
    """Return the body's root fold, or None if the root is something else."""
    return e if isinstance(e, (Foldl, Foldl1)) else None


# ---------------------------------------------------------------------------
# Validation


def _diag(out: list[Diagnostic], code: str, subject: str, message: str) -> None:
    out.append(Diagnostic(code=code, subject=subject, message=message))


def _expected_output_shapes(node: NodeSpec) -> list[Vector]:
    return [Vector(p.total) for p in node.patterns.outputs]


def _check_output_shape(node: NodeSpec, shape: Shape, out: list[Diagnostic]) -> None:
    expected = _expected_output_shapes(node)
    if isinstance(shape, TupleShape):
        got = list(shape.items)
    else:
        got = [shape]
    if len(got) != len(expected):
        _diag(
            out,
            "ShapeMismatch",
            node.name,
            f"body yields {len(got)} outputs but node declares {len(expected)} output ports",
        )
        return
    for port, (g, e) in enumerate(zip(got, expected)):
        length = g.length if isinstance(g, Vector) else 1 if isinstance(g, Scalar) else None
        if length != e.length:
            _diag(
                out,
                "ShapeMismatch",
                node.name,
                f"output port {port} pattern moves {e.length} tokens per firing "
                f"but the body yields {g}",
            )


def _referenced_inputs(e: Expr, acc: set[int]) -> None:
    if isinstance(e, InputRef):
        acc.add(e.index)
    for c in children(e):
        _referenced_inputs(c, acc)


def _first_not_elementwise(e: Expr, root: bool = True) -> Expr | None:
    """The first fold, ``proj`` or below-root ``tuple`` in ``e``, or None
    when ``e`` is elementwise (output element k reads element k only)."""
    if isinstance(e, (Foldl, Foldl1, Proj)) or (isinstance(e, Tuple) and not root):
        return e
    for c in children(e):
        found = _first_not_elementwise(c, False)
        if found is not None:
            return found
    return None


def _validate_compute_body(node: NodeSpec, out: list[Diagnostic]) -> None:
    body = node.body
    assert body is not None

    refs: set[int] = set()
    _referenced_inputs(body, refs)
    arity = len(node.patterns.inputs)
    if refs != set(range(arity)):
        _diag(
            out,
            "ArityMismatch",
            node.name,
            f"body references input ports {sorted(refs)} but the node declares "
            f"{arity} input ports (expected exactly 0..{arity - 1})",
        )
        return

    try:
        shape = infer_shape(body, node.input_shapes())
    except ShapeMismatchError as exc:
        _diag(out, "ShapeMismatch", node.name, str(exc))
        return
    _check_output_shape(node, shape, out)

    if node.length <= 1:
        return  # single-phase firings place no structural limits on the body

    # Multi-phase firings must be streamable: either the root is a fold fed
    # directly by an input port, or the whole body is elementwise.
    fold = root_fold(body)
    if fold is not None:
        if not isinstance(fold.vec, InputRef):
            _diag(
                out,
                "FoldNotAtRoot",
                node.name,
                "a fold spread over a multi-phase firing must reduce an input "
                "port directly; its internal state cannot be split otherwise",
            )
        from .lowering import seed_literal

        if isinstance(fold, Foldl) and seed_literal(node, fold.init) is None:
            _diag(
                out,
                "FoldNotAtRoot",
                node.name,
                "a multi-phase fold's initial value must be a compile-time constant",
            )
        if contains_fold(fold.fn.body):
            _diag(out, "FoldNotAtRoot", node.name, "nested fold inside a fold lambda")
        lambda_refs: set[int] = set()
        _referenced_inputs(fold.fn.body, lambda_refs)
        if lambda_refs:
            _diag(
                out,
                "NotStreamable",
                node.name,
                "a multi-phase fold lambda cannot read input ports directly; "
                "only the running value and the current element exist per phase",
            )
        # The reduction result only exists after the last phase.
        for port, p in enumerate(node.patterns.outputs):
            tail = p.phases[-1]
            if p.total != tail:
                _diag(
                    out,
                    "FoldOutputTooEarly",
                    node.name,
                    f"output port {port} pattern {p} emits before the reduction "
                    "completes; a multi-phase fold may only produce in its final phase",
                )
        return

    if contains_fold(body):
        _diag(
            out,
            "FoldNotAtRoot",
            node.name,
            "a fold below the body root cannot be streamed across a multi-phase firing",
        )
        return

    blocker = _first_not_elementwise(body)
    if blocker is not None:
        what = type(blocker).__name__
        _diag(out, "NotStreamable", node.name,
              f"{what} is not elementwise; it cannot be streamed phase by phase")
        return

    # Elementwise streaming assumes output element k is computed in the same
    # phase that consumes input element k, so the patterns must agree.
    pats = node.patterns.all_patterns
    if any(p.phases != pats[0].phases for p in pats[1:]):
        _diag(
            out,
            "PhasePatternMismatch",
            node.name,
            "a multi-phase elementwise node needs identical input and output "
            f"patterns; got {[str(p) for p in pats]}",
        )


def validate_graph(g: Graph) -> list[Diagnostic]:
    """Run every semantic check; return all findings (empty means valid).

    This never raises: each independent problem becomes one
    :class:`Diagnostic` so a single run reports everything.
    """
    out: list[Diagnostic] = []

    for node in g.nodes.values():
        if node.patterns.all_patterns and not node.patterns.uniform_length():
            _diag(
                out,
                "PatternLengthMismatch",
                node.name,
                f"patterns {[str(p) for p in node.patterns.all_patterns]} "
                "differ in length; all patterns of one node must span the same firing",
            )

    # Body checks only make sense on nodes whose patterns line up.
    flagged = {d.subject for d in out}
    for node in g.computes:
        if node.name not in flagged:
            _validate_compute_body(node, out)

    # Sink ports mirror their producer: a sink accepts whatever arrives.
    for e in g.edges:
        if g.nodes[e.consumer].kind is NodeKind.SINK and e.pp.phases != e.cp.phases:
            _diag(
                out,
                "SinkPatternMismatch",
                e.id,
                f"sink input pattern {e.cp} must equal the producer pattern {e.pp}",
            )

    try:
        g.topo_order()
    except CycleDetected as exc:
        _diag(out, "CycleDetected", g.name, str(exc))
        return out  # rate analysis needs an acyclic graph

    try:
        g.prepared.reps  # computed here once, then kept for every later pass
    except InconsistentRates as exc:
        _diag(out, "InconsistentRates", g.name, str(exc))

    return out


# ---------------------------------------------------------------------------
# Balance analysis


def _rate(num: int, den: int) -> str:
    """A reduced positive fraction as :class:`fractions.Fraction` prints it."""
    return f"{num}/{den}" if den != 1 else str(num)


def compute_repetition_vector(g: Graph) -> dict[str, int]:
    """Minimal positive firing counts balancing every edge.

    For each edge, ``r[producer] * total(pp) == r[consumer] * total(cp)``.
    Rates are propagated as exact fractions, each a reduced pair of integers
    ``(numerator, denominator)``, and scaled to the smallest positive
    integers per connected component.

    Raises
    ------
    InconsistentRates
        If two paths force contradictory rates on some node.
    """
    rates: dict[str, tuple[int, int]] = {}
    adjacency: dict[str, list[tuple[str, int, int]]] = {n: [] for n in g.nodes}
    for e in g.edges:  # r_cons = r_prod * total(pp) / total(cp)
        adjacency[e.producer].append((e.consumer, e.pp.total, e.cp.total))
        adjacency[e.consumer].append((e.producer, e.cp.total, e.pp.total))

    reps = {}
    for seed in g.nodes:
        if seed in rates:
            continue
        rates[seed] = (1, 1)
        stack = [seed]
        component = [seed]
        while stack:
            cur = stack.pop()
            num, den = rates[cur]
            for other, times, over in adjacency[cur]:
                n, d = num * times, den * over
                k = math.gcd(n, d)
                implied = (n // k, d // k)
                if other not in rates:
                    rates[other] = implied
                    component.append(other)
                    stack.append(other)
                elif rates[other] != implied:
                    raise InconsistentRates(
                        f"node '{other}' needs rate {_rate(*implied)} via '{cur}' "
                        f"but {_rate(*rates[other])} via another path"
                    )
        # Scale this component to minimal positive integers.
        scale = math.lcm(*(rates[n][1] for n in component))
        ints = [rates[n][0] * (scale // rates[n][1]) for n in component]
        shrink = math.gcd(*ints)
        for n, v in zip(component, ints):
            reps[n] = v // shrink

    return {n: reps[n] for n in g.nodes}
