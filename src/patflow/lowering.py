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

:func:`lower_hof_node` unrolls each body once, into the netlists of its
plan: one operator instance per primitive application, where an operator on
two literals folds into a literal, so any constant subexpression, a
``foldl`` seed included, costs no operator.  Each lane of an elementwise
node unrolls the body itself over one word of every input, so a ``let``-
or lambda-bound value is one instance per lane, as it is one instance in a
single-phase body.  The RTL renders one wire per instance and the estimator
counts them, so both see the same hardware.  How a fold seeds, bypasses
its first operator and holds through idle phases is decided once, by the
RTL's datapath module (:mod:`patflow.rtl.lower`), which the clocked
simulator compiles and runs, so the equivalence check compares the
emitted datapath with the functional reference,
:func:`~patflow.exprs.compile_reference`.

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

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import UnsupportedExpr
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
    apply_prim,
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
    "Wire",
    "Netlist",
    "DatapathPlan",
    "lower_hof_node",
    "seed_literal",
    "unroll",
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


class Wire(NamedTuple):
    """An operand: the result of operator instance ``index`` of its netlist."""

    index: int


class Netlist(NamedTuple):
    """One ``(op, a, b)`` per operator instance, in the RTL's assign order,
    and the output words per output port.  An operand is a :class:`Wire`, a
    literal ``int``, an input word ``(port, k)``, or a fold datapath's
    register ``"acc_q"``, ``"carry"`` or ``"stage0"``."""

    ops: tuple[tuple[str, object, object], ...]
    outs: tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class DatapathPlan:
    """How one compute node's body becomes a datapath.

    Parameters
    ----------
    node : str
        Node name.
    mode : str
        ``"fold"`` (multi-phase root fold with accumulator),
        ``"elementwise"`` (one copy of the body per lane, streamed per
        phase), or ``"general"`` (single-phase body, fully unrolled).
    lanes : int
        Parallel copies of the per-element logic (the patterns' shared n).
    phases : int
        Firing length in cycles.
    netlists : tuple of Netlist
        Elementwise: one per output port and lane, port-major, over word
        ``lane`` of every input.  Fold: the chain of ``lanes`` lambda
        applications, after the first application on its own if the fold is
        unseeded.  General: the whole body.
    accumulator_width : int or None
        Width of the fold accumulator register, if one exists.
    fold_init, fold_input :
        For fold nodes: the seed value (None = seed from the first
        element) and the reduced input port.
    """

    node: str
    mode: str
    lanes: int
    phases: int
    netlists: tuple[Netlist, ...]
    accumulator_width: int | None = None
    fold_init: int | None = None
    fold_input: int = 0

    @property
    def op_counts(self) -> dict[str, int]:
        """Operator instances by primitive name, e.g. ``{"mul": 5}``."""
        return dict(Counter(op for net in self.netlists for op, _, _ in net.ops))


def normalized_fold(e: Foldl | Foldl1):
    """Return ``(fn, seed, vec)`` for a fold.

    A ``foldl`` keeps its seed expression.  ``foldl1`` whose lambda is a
    bare identity-bearing primitive becomes a fold seeded with that
    identity; other ``foldl1`` get ``seed = None`` (seed from the first
    element, with the first operator instance bypassed in phase 0).
    """
    if isinstance(e, Foldl):
        return e.fn, e.init, e.vec
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
# ``unroll`` records one operator instance per primitive application.  Its
# values are operands (see ``Netlist``) or lists of them (vectors, tuples).


class _Recorder:
    """Records one ``(op, a, b)`` per operator instance; an operator whose
    operands are both literals becomes a literal instead.  :meth:`take`
    ends one netlist and starts the next."""

    def __init__(self, width: int):
        self.mask = (1 << width) - 1
        self.ops: list[tuple[str, object, object]] = []

    def lit(self, value: int) -> int:
        return value & self.mask

    def prim(self, op: str, a, b):
        if isinstance(a, int) and isinstance(b, int):
            return apply_prim(op, a, b, self.mask)
        self.ops.append((op, a, b))
        return Wire(len(self.ops) - 1)

    def take(self, *outs) -> Netlist:
        """The instances recorded so far, with one output value per port."""
        net = Netlist(tuple(self.ops), tuple(tuple(_as_vector(v)) for v in outs))
        self.ops = []
        return net


def _as_scalar(v):
    if isinstance(v, list):
        if len(v) == 1:
            return _as_scalar(v[0])
        raise UnsupportedExpr("vector value where a scalar operand is needed")
    return v


def _as_vector(v) -> list:
    return v if isinstance(v, list) else [v]


def unroll(e: Expr, env: dict, inputs: list, rec: _Recorder):
    """Unroll ``e`` over ``inputs`` (one value per input port) into ``rec``."""
    if isinstance(e, InputRef):
        return inputs[e.index]
    if isinstance(e, Const):
        return rec.lit(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PrimOp):
        a, b = (_as_scalar(unroll(x, env, inputs, rec)) for x in e.args)
        return rec.prim(e.op, a, b)
    if isinstance(e, Map):
        vec = _as_vector(unroll(e.vec, env, inputs, rec))
        return [_apply_lambda(e.fn, [x], env, inputs, rec) for x in vec]
    if isinstance(e, ZipWith):
        left = _as_vector(unroll(e.left, env, inputs, rec))
        right = _as_vector(unroll(e.right, env, inputs, rec))
        return [_apply_lambda(e.fn, [x, y], env, inputs, rec) for x, y in zip(left, right)]
    if isinstance(e, (Foldl, Foldl1)):
        fn, seed, vec_expr = normalized_fold(e)
        vec = _as_vector(unroll(vec_expr, env, inputs, rec))
        if seed is None:
            acc, vec = _as_scalar(vec[0]), vec[1:]
        else:
            acc = seed if isinstance(seed, int) else _as_scalar(unroll(seed, env, inputs, rec))
        for x in vec:
            acc = _apply_lambda(fn, [acc, x], env, inputs, rec)
        return acc
    if isinstance(e, Let):
        inner = dict(env)
        for name, bound in e.bindings:
            inner[name] = unroll(bound, inner, inputs, rec)
        return unroll(e.body, inner, inputs, rec)
    if isinstance(e, Tuple):
        return [unroll(i, env, inputs, rec) for i in e.items]
    if isinstance(e, Proj):
        return unroll(e.tup, env, inputs, rec)[e.index]
    raise UnsupportedExpr(f"cannot lower {type(e).__name__} to hardware")


def _apply_lambda(fn: Lambda, args: list, env: dict, inputs: list, rec: _Recorder):
    """Unroll one application of ``fn`` to ``args``; return its scalar value."""
    inner = dict(env)
    for name, val in zip(fn.params, args):
        inner[name] = _as_scalar(val)
    return _as_scalar(unroll(fn.body, inner, inputs, rec))


def _input_words(node: NodeSpec) -> list[list[tuple[int, int]]]:
    """Every word of one firing's input, as a vector per input port."""
    return [[(i, k) for k in range(p.total)] for i, p in enumerate(node.patterns.inputs)]


def seed_literal(node: NodeSpec, seed: Expr) -> int | None:
    """The literal a fold seed of ``node`` unrolls to, or None when the
    seed is not a compile-time constant."""
    value = unroll(seed, {}, _input_words(node), _Recorder(node.width))
    return value if isinstance(value, int) else None


def lower_hof_node(node: NodeSpec) -> DatapathPlan:
    """Plan the datapath of one validated compute node.

    The body is unrolled here, once, into the netlists the RTL renders and
    ``op_counts`` counts: ``lanes`` applications of a fold's lambda,
    ``lanes`` copies of each elementwise output item (the root ``tuple``'s
    items, or the body), or the whole single-phase body.

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
    plan = partial(DatapathPlan, node=node.name, lanes=lanes, phases=phases)
    rec = _Recorder(node.width)

    if phases > 1:
        fold = root_fold(node.body)
        if fold is not None:
            if not isinstance(fold.vec, InputRef):
                raise UnsupportedExpr(
                    f"node '{node.name}': multi-phase fold must reduce an input port"
                )
            fn, init, vec = normalized_fold(fold)
            if isinstance(init, Expr):
                init = seed_literal(node, init)
                if init is None:
                    raise UnsupportedExpr(
                        f"node '{node.name}': multi-phase fold seed must be a constant"
                    )
            tokens = [(vec.index, k) for k in range(lanes)]
            netlists, acc = [], "carry"
            if init is None:
                netlists.append(rec.take(_apply_lambda(fn, ["acc_q", tokens[0]], {}, [], rec)))
                acc, tokens = "stage0", tokens[1:]
            for tok in tokens:
                acc = _apply_lambda(fn, [acc, tok], {}, [], rec)
            netlists.append(rec.take(acc))
            return plan(mode="fold", netlists=tuple(netlists), accumulator_width=node.width,
                        fold_init=init, fold_input=vec.index)
        items = node.body.items if isinstance(node.body, Tuple) else (node.body,)
        netlists = tuple(
            rec.take(unroll(item, {}, [[(i, lane)] for i in range(len(in_values))], rec))
            for item in items
            for lane in range(lanes)
        )
        return plan(mode="elementwise", netlists=netlists)

    result = unroll(node.body, {}, _input_words(node), rec)
    values = result if len(out_values) > 1 else [result]
    return plan(mode="general", netlists=(rec.take(*values),))


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


def lower_edges(g: Graph, capacities: dict[str, int] | None = None) -> dict[str, EdgeLowering]:
    """Classify every edge and fix its storage.

    Parameters
    ----------
    g : Graph
    capacities : dict, optional
        Peak occupancies from the scheduler (``size_fifos``).  Without them
        FIFOs fall back to their lower bound, one full firing of input.
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
        capacity = max(e.cp.total, capacities.get(e.id, 0))
        flavor = "register" if capacity <= REGISTER_FIFO_MAX else "memory"
        out[e.id] = EdgeLowering(e, "fifo", capacity, flavor, width, gate)
    return out
