"""The prepared view of a graph: everything the passes derive from it.

Scheduling, value simulation, the equivalence check, lowering, estimation
and RTL emission all need the same facts about a graph: its adjacency,
topological order, repetition vector, gate tables, per-phase token
offsets, datapath plans and compiled node bodies.  :class:`PreparedGraph`
computes each of them once, on first use, and keeps it;
:attr:`patflow.graphs.Graph.prepared` holds one per graph.  Graphs are immutable after :func:`~patflow.graphs.build_graph`,
which is what makes the cache safe.

Adjacency is built when the view is; everything else waits for its first
reader, so a counts-only schedule never plans datapaths or compiles
expressions.  A computation that raises (``CycleDetected``,
``InconsistentRates``, ``UnsupportedExpr``) keeps nothing and raises again
on the next use.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .errors import CycleDetected
from .exprs import compile_expr
from .graphs import EdgeSpec, Graph, NodeKind, compute_repetition_vector
from .lowering import DatapathPlan, edge_gate_table, lower_hof_node
from .patterns import FiringThresholds
from .schedule import StepTables

__all__ = ["PreparedGraph"]


class PreparedGraph:
    """Derived, read-only facts about one graph.

    ``ins[node]`` lists the edges into ``node`` ordered by consumer port;
    ``outs[(node, port)]`` lists the edges out of one producer port in
    document order.  Callers must not modify what they read here.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.ins: dict[str, list[EdgeSpec]] = {name: [] for name in g.nodes}
        self.outs: dict[tuple[str, int], list[EdgeSpec]] = {}
        for e in g.edges:
            self.ins[e.consumer].append(e)
            self.outs.setdefault((e.producer, e.producer_port), []).append(e)
        for edges in self.ins.values():
            edges.sort(key=lambda e: e.consumer_port)
        self._steps: dict[int, StepTables] = {}

    @cached_property
    def topo(self) -> list[str]:
        """Node names in topological order.

        Nodes are ordered by depth (the longest path from a node without
        inputs), and by document order within one depth.
        """
        nodes = self.g.nodes
        consumers: dict[str, list[str]] = {name: [] for name in nodes}
        waiting = {}
        for name in nodes:
            waiting[name] = len(self.ins[name])
            for e in self.ins[name]:
                consumers[e.producer].append(name)
        depth = dict.fromkeys(nodes, 0)
        placed = [name for name, k in waiting.items() if not k]
        for name in placed:  # grows while it is walked
            for c in consumers[name]:
                depth[c] = max(depth[c], depth[name] + 1)
                waiting[c] -= 1
                if not waiting[c]:
                    placed.append(c)
        if len(placed) < len(nodes):
            stuck = sorted(set(nodes) - set(placed))
            raise CycleDetected(f"dependency cycle among nodes {stuck}")
        index = {name: i for i, name in enumerate(nodes)}
        return sorted(placed, key=lambda name: (depth[name], index[name]))

    @cached_property
    def reps(self) -> dict[str, int]:
        """The repetition vector (:func:`~patflow.graphs.compute_repetition_vector`)."""
        return compute_repetition_vector(self.g)

    @cached_property
    def gates(self) -> dict[str, FiringThresholds]:
        """The gate table of every edge, by edge id (see
        :func:`~patflow.lowering.edge_gate_table`)."""
        return {e.id: edge_gate_table(self.g, e) for e in self.g.edges}

    @cached_property
    def offsets(self) -> dict[str, tuple[list[list[int]], list[list[int]]]]:
        """Per node, the token offset at the start of each phase (and the
        total after the last), per input port and per output port."""
        return {
            n.name: (_offsets(n.patterns.inputs), _offsets(n.patterns.outputs))
            for n in self.g.nodes.values()
        }

    @cached_property
    def plans(self) -> dict[str, DatapathPlan]:
        """The :class:`~patflow.lowering.DatapathPlan` of every compute node."""
        return {n.name: lower_hof_node(n) for n in self.g.computes}

    @cached_property
    def bodies(self) -> dict:
        """Every compute node's body, compiled (see
        :func:`~patflow.exprs.compile_expr`)."""
        return {n.name: compile_expr(n.body, n.width) for n in self.g.computes}

    @cached_property
    def fold_steps(self) -> dict:
        """The compiled lambda of each multi-phase fold node, as
        ``step(acc, token) -> acc``, by node name."""
        nodes = self.g.nodes
        return {
            name: _fold_step(plan.fold_fn, nodes[name].width)
            for name, plan in self.plans.items()
            if plan.mode == "fold"
        }

    def step_tables(self, gate_offset: int) -> StepTables:
        """The scheduler's :class:`~patflow.schedule.StepTables` at
        ``gate_offset``, built by the first machine that asks."""
        tables = self._steps.get(gate_offset)
        if tables is None:
            tables = self._steps[gate_offset] = StepTables(self.g, gate_offset)
        return tables

    def firing_outputs(self, name: str, vectors: list[tuple[int, ...]]) -> list[list[int]]:
        """Evaluate one whole firing of compute node ``name`` on one vector
        per input port; return its tokens per output port."""
        result = self.bodies[name](vectors)
        ports = len(self.g.nodes[name].patterns.outputs)
        values = list(result) if ports > 1 else [result]
        out = []
        for port in range(ports):
            v = values[port]
            out.append(list(v) if isinstance(v, tuple) else [v])
        return out


def _offsets(patterns) -> list[list[int]]:
    return [[0, *accumulate(p.phases)] for p in patterns]


def _fold_step(fn, width: int):
    body = compile_expr(fn.body, width)
    acc_name, tok_name = fn.params

    def step(acc, tok):
        return body((), {acc_name: acc, tok_name: tok})

    return step
