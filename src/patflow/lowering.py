"""Mapping nodes and edges onto hardware structures.

This module decides, once, how each graph element becomes hardware; the
scheduler, the clocked simulator, the resource estimator, and the RTL
emitter all read the same plans, which is what keeps their numbers
consistent with each other.

Nodes
-----
A compute node unrolls into ``lanes`` parallel copies of its per-element
logic, where ``lanes`` is the shared non-zero value ``n`` of its patterns:
consuming ``n`` tokens per cycle takes ``n`` copies of the element function.
A fold spread over several phases additionally keeps its running value in an
accumulator register.  ``foldl1`` over an operator with a known identity
(``add``/``max`` with 0, ``mul`` with 1) is normalized to ``foldl`` of that
identity so every fold lowers to the same seeded chain of ``n`` operator
instances per phase.

Edges
-----
* consumer is a sink -> plain wiring, no storage;
* producer is a compute node and pp == cp -> a pipeline register holding one
  phase's tokens (FIFO and controller optimized away);
* otherwise -> a FIFO plus a threshold controller.  Source-fed edges always
  get a FIFO even when pp == cp: they are the design's input buffers.

A FIFO must hold at least one full firing's worth of input (``total(cp)``,
the controller's idle threshold), so its allocated capacity is
``max(total(cp), observed peak occupancy)``.  FIFOs up to
:data:`REGISTER_FIFO_MAX` tokens are built from registers; anything larger
becomes a memory array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityMissing, UnsupportedExpr
from .exprs import (
    Const,
    Expr,
    Foldl,
    Foldl1,
    Lambda,
    Let,
    Map,
    PrimOp,
    Proj,
    Scalar,
    Shape,
    Tuple,
    TupleShape,
    Var,
    Vector,
    ZipWith,
    InputRef,
    eval_expr,
    infer_shape,
    scalarize,
)
from .graphs import EdgeSpec, Graph, NodeKind, NodeSpec, root_fold
from .patterns import (
    FiringThresholds,
    compute_fifo_thresholds,
    compute_registered_thresholds,
)

__all__ = [
    "REGISTER_FIFO_MAX",
    "FOLD_IDENTITY",
    "DatapathPlan",
    "lower_hof_node",
    "EdgeLowering",
    "lower_edges",
    "edge_gate_table",
]

# Largest FIFO (in tokens) still built from discrete registers; beyond this
# the FIFO becomes a memory array and is accounted in memory bits.
REGISTER_FIFO_MAX = 16

# Identity elements for unsigned wrap-around arithmetic.
FOLD_IDENTITY = {"add": 0, "max": 0, "mul": 1}


def counter_bits(limit: int) -> int:
    """Width of a register that counts 0..limit, such as a phase counter
    (whose value ``length`` encodes idle) or a FIFO occupancy."""
    return max(1, limit.bit_length())


# ---------------------------------------------------------------------------
# Node plans


@dataclass(frozen=True)
class DatapathPlan:
    """How one compute node's body becomes a datapath.

    Parameters
    ----------
    node : str
        Node name.
    mode : str
        ``"fold"`` (multi-phase root fold with accumulator),
        ``"elementwise"`` (per-lane scalar logic, streamed per phase), or
        ``"general"`` (single-phase body, fully unrolled).
    lanes : int
        Parallel copies of the per-element logic (the patterns' shared n).
    phases : int
        Firing length in cycles.
    op_counts : dict
        Total operator instances by primitive name, e.g. ``{"mul": 5}``.
    accumulator_width : int or None
        Width of the fold accumulator register, if one exists.
    fold_fn, fold_init, fold_input :
        For fold nodes: the lambda, the seed value (None = seed from the
        first element), and the reduced input port.
    scalar_exprs : tuple
        For elementwise nodes: one scalar expression per output port.
    """

    node: str
    mode: str
    lanes: int
    phases: int
    op_counts: dict[str, int]
    accumulator_width: int | None = None
    fold_fn: Lambda | None = None
    fold_init: int | None = None
    fold_input: int = 0
    scalar_exprs: tuple[Expr, ...] = field(default_factory=tuple)


def _lambda_op_counts(e: Expr, counts: dict[str, int], times: int = 1) -> None:
    if isinstance(e, PrimOp):
        counts[e.op] = counts.get(e.op, 0) + times
        for a in e.args:
            _lambda_op_counts(a, counts, times)
    elif isinstance(e, Let):
        for _, b in e.bindings:
            _lambda_op_counts(b, counts, times)
        _lambda_op_counts(e.body, counts, times)
    elif isinstance(e, (Map, ZipWith, Foldl, Foldl1, Tuple, Proj)):
        raise UnsupportedExpr(
            f"{type(e).__name__} inside scalar lane logic cannot be unrolled"
        )
    # InputRef / Const / Var contribute no operators.


def normalized_fold(e: Foldl | Foldl1, width: int):
    """Return ``(fn, init_value_or_None, vec)`` for a root fold.

    ``foldl1`` whose lambda is a bare identity-bearing primitive becomes a
    seeded fold; other ``foldl1`` keep ``init = None`` (seed from the first
    element, with the first operator instance bypassed in phase 0).
    """
    if isinstance(e, Foldl):
        init = eval_expr(e.init, [], width)
        return e.fn, init, e.vec
    body = e.fn.body
    if (
        isinstance(body, PrimOp)
        and body.op in FOLD_IDENTITY
        and body.args == (Var(e.fn.params[0]), Var(e.fn.params[1]))
    ):
        return e.fn, FOLD_IDENTITY[body.op], e.vec
    return e.fn, None, e.vec


def _count_general(e: Expr, shapes: list[Shape], width: int, counts: dict[str, int],
                   env: dict[str, Shape]) -> Shape:
    """Count operator instances of a fully unrolled single-phase body."""
    if isinstance(e, (InputRef, Const, Var)):
        return infer_shape(e, shapes, dict(env))
    if isinstance(e, PrimOp):
        for a in e.args:
            _count_general(a, shapes, width, counts, env)
        counts[e.op] = counts.get(e.op, 0) + 1
        return Scalar()
    if isinstance(e, Map):
        length = _vector_length_env(e.vec, shapes, env)
        _count_general(e.vec, shapes, width, counts, env)
        _lambda_op_counts(e.fn.body, counts, times=length)
        return Vector(length)
    if isinstance(e, ZipWith):
        length = _vector_length_env(e.left, shapes, env)
        _count_general(e.left, shapes, width, counts, env)
        _count_general(e.right, shapes, width, counts, env)
        _lambda_op_counts(e.fn.body, counts, times=length)
        return Vector(length)
    if isinstance(e, (Foldl, Foldl1)):
        length = _vector_length_env(e.vec, shapes, env)
        _count_general(e.vec, shapes, width, counts, env)
        if isinstance(e, Foldl):
            _count_general(e.init, shapes, width, counts, env)
            applications = length
        else:
            _, init, _ = normalized_fold(e, width)
            applications = length if init is not None else max(0, length - 1)
        _lambda_op_counts(e.fn.body, counts, times=applications)
        return Scalar()
    if isinstance(e, Let):
        inner = dict(env)
        for name, bound in e.bindings:
            inner[name] = _count_general(bound, shapes, width, counts, inner)
        return _count_general(e.body, shapes, width, counts, inner)
    if isinstance(e, Tuple):
        return TupleShape(tuple(_count_general(i, shapes, width, counts, env) for i in e.items))
    if isinstance(e, Proj):
        t = _count_general(e.tup, shapes, width, counts, env)
        assert isinstance(t, TupleShape)
        return t.items[e.index]
    raise UnsupportedExpr(f"cannot lower {type(e).__name__}")


def _vector_length_env(e: Expr, shapes: list[Shape], env: dict[str, Shape]) -> int:
    s = infer_shape(e, shapes, dict(env))
    if isinstance(s, Vector):
        return s.length
    raise UnsupportedExpr(f"expected a vector expression, got shape {s}")


def lower_hof_node(node: NodeSpec) -> DatapathPlan:
    """Plan the datapath of one validated compute node.

    Raises
    ------
    UnsupportedExpr
        If the body cannot be mapped (should not happen for graphs that
        pass :func:`~patflow.graphs.validate_graph`).
    """
    if node.kind is not NodeKind.COMPUTE or node.body is None:
        raise UnsupportedExpr(f"node '{node.name}' has no datapath")

    in_values = [p.value for p in node.patterns.inputs]
    out_values = [p.value for p in node.patterns.outputs]
    lanes = max(in_values) if in_values else max(out_values)
    phases = node.length
    shapes = node.input_shapes()
    counts: dict[str, int] = {}

    if phases > 1:
        fold = root_fold(node.body)
        if fold is not None:
            if not isinstance(fold.vec, InputRef):
                raise UnsupportedExpr(
                    f"node '{node.name}': multi-phase fold must reduce an input port"
                )
            fn, init, vec = normalized_fold(fold, node.width)
            _lambda_op_counts(fn.body, counts, times=lanes)
            if isinstance(fold, Foldl):
                _lambda_op_counts(fold.init, counts)
            return DatapathPlan(
                node=node.name,
                mode="fold",
                lanes=lanes,
                phases=phases,
                op_counts=counts,
                accumulator_width=node.width,
                fold_fn=fn,
                fold_init=init,
                fold_input=vec.index,
            )
        exprs = tuple(scalarize(node.body))
        for s in exprs:
            _lambda_op_counts(s, counts, times=lanes)
        return DatapathPlan(
            node=node.name,
            mode="elementwise",
            lanes=lanes,
            phases=phases,
            op_counts=counts,
            scalar_exprs=exprs,
        )

    _count_general(node.body, shapes, node.width, counts, {})
    return DatapathPlan(
        node=node.name,
        mode="general",
        lanes=lanes,
        phases=phases,
        op_counts=counts,
    )


# ---------------------------------------------------------------------------
# Edge plans


@dataclass(frozen=True)
class EdgeLowering:
    """How one edge becomes hardware.

    ``kind`` is ``"sink"`` (plain wiring), ``"pipeline"`` (single register
    stage), or ``"fifo"`` (FIFO plus threshold controller).  ``gate`` is the
    threshold table the consumer is gated by; for source-fed edges it is the
    same-cycle table, for compute-fed edges the registered one.
    """

    edge: EdgeSpec
    kind: str
    capacity: int
    flavor: str | None
    width: int
    gate: FiringThresholds

    @property
    def storage_bits(self) -> int:
        return self.capacity * self.width if self.kind != "sink" else 0


def edge_gate_table(g: Graph, e: EdgeSpec) -> FiringThresholds:
    """The threshold table that actually gates this edge's consumer.

    Tokens from a source port are visible the cycle they are supplied;
    tokens from a compute node land behind its output register, one cycle
    later, which calls for the shifted (registered) thresholds.
    """
    if g.nodes[e.producer].kind is NodeKind.SOURCE:
        return compute_fifo_thresholds(e.pp, e.cp)
    return compute_registered_thresholds(e.pp, e.cp)


def lower_edges(
    g: Graph,
    capacities: dict[str, int] | None = None,
    *,
    require_capacities: bool = False,
) -> dict[str, EdgeLowering]:
    """Classify every edge and fix its storage.

    Parameters
    ----------
    g : Graph
    capacities : dict, optional
        Peak occupancies from the scheduler (``size_fifos``).  Without them
        FIFOs fall back to their lower bound, one full firing of input.
    require_capacities : bool
        Raise :class:`CapacityMissing` instead of falling back.
    """
    capacities = capacities or {}
    gates = g.prepared.gates
    out: dict[str, EdgeLowering] = {}
    for e in g.edges:
        width = g.nodes[e.producer].width
        gate = gates[e.id]
        if g.nodes[e.consumer].kind is NodeKind.SINK:
            out[e.id] = EdgeLowering(e, "sink", 0, None, width, gate)
            continue
        producer_is_compute = g.nodes[e.producer].kind is NodeKind.COMPUTE
        if producer_is_compute and e.pp.phases == e.cp.phases:
            out[e.id] = EdgeLowering(e, "pipeline", e.pp.value, None, width, gate)
            continue
        if e.id not in capacities and require_capacities:
            raise CapacityMissing(f"edge '{e.id}' has no sized capacity")
        capacity = max(e.cp.total, capacities.get(e.id, 0))
        flavor = "register" if capacity <= REGISTER_FIFO_MAX else "memory"
        out[e.id] = EdgeLowering(e, "fifo", capacity, flavor, width, gate)
    return out
