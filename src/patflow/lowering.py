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
instances per phase.  A ``foldl`` seed that is a compile-time constant is a
literal (no operator); a seed that reads an input is unrolled.

One unroller, :func:`unroll`, turns bodies into operator instances.  The
RTL lowering runs it to emit one wire per instance, and
:func:`lower_hof_node` runs it over the same per-mode structure to fill
``DatapathPlan.op_counts``, so the estimate counts exactly what the RTL
instantiates.  Evaluation stays on :func:`~patflow.exprs.compile_expr`, the
functional reference the equivalence check compares against.

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
    Tuple,
    Var,
    ZipWith,
    InputRef,
    eval_expr,
    scalarize,
)
from .graphs import EdgeSpec, Graph, NodeKind, NodeSpec, _const_only, root_fold
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
    "unroll",
    "apply_lambda",
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


def normalized_fold(e: Foldl | Foldl1, width: int):
    """Return ``(fn, seed, vec)`` for a fold.

    A ``foldl`` seed that is a compile-time constant becomes its value, a
    literal; any other seed stays an expression.  ``foldl1`` whose lambda is
    a bare identity-bearing primitive becomes a fold seeded with that
    identity; other ``foldl1`` get ``seed = None`` (seed from the first
    element, with the first operator instance bypassed in phase 0).
    """
    if isinstance(e, Foldl):
        init = eval_expr(e.init, [], width) if _const_only(e.init) else e.init
        return e.fn, init, e.vec
    body = e.fn.body
    if (
        isinstance(body, PrimOp)
        and body.op in FOLD_IDENTITY
        and body.args == (Var(e.fn.params[0]), Var(e.fn.params[1]))
    ):
        return e.fn, FOLD_IDENTITY[body.op], e.vec
    return e.fn, None, e.vec


# ---------------------------------------------------------------------------
# Unrolling
#
# ``unroll`` turns an expression into one operator instance per primitive
# application.  What an instance is belongs to ``emit``, which has the
# element ``width`` and two methods: ``prim(op, a, b)`` makes one operator
# instance and returns its value, ``lit(value)`` makes a constant.  The RTL
# lowering's emit makes one wire per instance; the plan's emit counts them,
# so ``DatapathPlan.op_counts`` is the number of wires by construction.
# Values are whatever ``emit`` returns, or lists of them (vectors and the
# items of a ``tuple``).


def _as_scalar(v):
    if isinstance(v, list):
        if len(v) == 1:
            return _as_scalar(v[0])
        raise UnsupportedExpr("vector value where a scalar operand is needed")
    return v


def _as_vector(v) -> list:
    return v if isinstance(v, list) else [v]


def unroll(e: Expr, env: dict, inputs: list, emit):
    """Unroll ``e`` over ``inputs`` (one value per input port) through ``emit``."""
    if isinstance(e, InputRef):
        return inputs[e.index]
    if isinstance(e, Const):
        return emit.lit(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PrimOp):
        a, b = (_as_scalar(unroll(x, env, inputs, emit)) for x in e.args)
        return emit.prim(e.op, a, b)
    if isinstance(e, Map):
        vec = _as_vector(unroll(e.vec, env, inputs, emit))
        return [apply_lambda(e.fn, [x], env, inputs, emit) for x in vec]
    if isinstance(e, ZipWith):
        left = _as_vector(unroll(e.left, env, inputs, emit))
        right = _as_vector(unroll(e.right, env, inputs, emit))
        return [apply_lambda(e.fn, [x, y], env, inputs, emit) for x, y in zip(left, right)]
    if isinstance(e, (Foldl, Foldl1)):
        fn, seed, vec_expr = normalized_fold(e, emit.width)
        vec = _as_vector(unroll(vec_expr, env, inputs, emit))
        if seed is None:
            acc, vec = _as_scalar(vec[0]), vec[1:]
        elif isinstance(seed, int):
            acc = emit.lit(seed)
        else:
            acc = _as_scalar(unroll(seed, env, inputs, emit))
        for x in vec:
            acc = apply_lambda(fn, [acc, x], env, inputs, emit)
        return acc
    if isinstance(e, Let):
        inner = dict(env)
        for name, bound in e.bindings:
            inner[name] = unroll(bound, inner, inputs, emit)
        return unroll(e.body, inner, inputs, emit)
    if isinstance(e, Tuple):
        return [unroll(i, env, inputs, emit) for i in e.items]
    if isinstance(e, Proj):
        return unroll(e.tup, env, inputs, emit)[e.index]
    raise UnsupportedExpr(f"cannot lower {type(e).__name__} to hardware")


def apply_lambda(fn: Lambda, args: list, env: dict, inputs: list, emit):
    """Unroll one application of ``fn`` to ``args``; return its scalar value."""
    inner = dict(env)
    for name, val in zip(fn.params, args):
        inner[name] = _as_scalar(val)
    return _as_scalar(unroll(fn.body, inner, inputs, emit))


class _OpCounter:
    """An ``emit`` that only counts operator instances by primitive name."""

    def __init__(self, width: int):
        self.width = width
        self.counts: dict[str, int] = {}

    def prim(self, op: str, a, b) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1

    def lit(self, value: int) -> None:
        return None


def lower_hof_node(node: NodeSpec) -> DatapathPlan:
    """Plan the datapath of one validated compute node.

    ``op_counts`` comes from unrolling the same structure the RTL builds:
    ``lanes`` applications of a fold's lambda, ``lanes`` copies of each
    elementwise scalar expression, or the whole single-phase body.

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
    counter = _OpCounter(node.width)

    if phases > 1:
        fold = root_fold(node.body)
        if fold is not None:
            if not isinstance(fold.vec, InputRef):
                raise UnsupportedExpr(
                    f"node '{node.name}': multi-phase fold must reduce an input port"
                )
            fn, init, vec = normalized_fold(fold, node.width)
            if isinstance(init, Expr):
                raise UnsupportedExpr(
                    f"node '{node.name}': multi-phase fold seed must be a constant"
                )
            for _ in range(lanes):
                apply_lambda(fn, [None, None], {}, [], counter)
            return DatapathPlan(
                node=node.name,
                mode="fold",
                lanes=lanes,
                phases=phases,
                op_counts=counter.counts,
                accumulator_width=node.width,
                fold_fn=fn,
                fold_init=init,
                fold_input=vec.index,
            )
        exprs = tuple(scalarize(node.body))
        inputs = [None] * len(in_values)
        for s in exprs:
            for _ in range(lanes):
                unroll(s, {}, inputs, counter)
        return DatapathPlan(
            node=node.name,
            mode="elementwise",
            lanes=lanes,
            phases=phases,
            op_counts=counter.counts,
            scalar_exprs=exprs,
        )

    inputs = [[None] * p.total for p in node.patterns.inputs]
    unroll(node.body, {}, inputs, counter)
    return DatapathPlan(
        node=node.name,
        mode="general",
        lanes=lanes,
        phases=phases,
        op_counts=counter.counts,
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
