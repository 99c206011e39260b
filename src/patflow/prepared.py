"""The prepared view of a graph: everything the passes derive from it.

Scheduling, value simulation, the equivalence check, lowering, estimation
and RTL emission all need the same facts about a graph: its adjacency,
topological order, repetition vector, gate tables, datapath plans, their
RTL datapath modules compiled (what a clocked run evaluates) and the node
bodies, each compiled into one loop over the node's firings (what the
functional reference evaluates).  :class:`PreparedGraph` computes
each of them once, on first use, and keeps it;
:attr:`patflow.graphs.Graph.prepared` holds one per graph.  Graphs are
immutable after :func:`~patflow.graphs.build_graph`, which makes the
cache safe.

Adjacency is built when the view is; everything else waits for its first
reader, so building and validating a graph or a counts-only schedule
never plans datapaths or compiles expressions, and a clocked run compiles
no reference.  A computation that raises (``CycleDetected``,
``InconsistentRates``, ``UnsupportedExpr``, ``ShapeMismatch``,
``Deadlock``) keeps nothing and raises again on the next use.

Two facts depend on a run's configuration as well as on the graph, and are
kept per configuration.  The scheduler's step tables, per gate offset, are
built by the first run at that offset: each non-sink node's gate, arrival
and consumption tables per input edge, which every run steps the node from,
whatever its iteration count.  The :class:`~patflow.schedule.TokenPlan` of
a clocked run is kept per iteration count and gate offset, and only the
``MAX_TOKEN_PLANS`` most recently used are.  A plan is fixed by the graph
alone, since token values never decide a firing, so equivalence trials at
one configuration schedule once.  The replay layout the first clocked run
of a plan derives from it is kept on the plan itself
(:attr:`~patflow.schedule.TokenPlan.layout`), and goes when the plan does.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CycleDetected
from .exprs import compile_reference
from .graphs import EdgeSpec, Graph, NodeKind, compute_repetition_vector
from .lowering import DatapathPlan, edge_gate_table, lower_hof_node
from .patterns import FiringThresholds
from .rtl.lower import compile_datapath, datapath_signature
from .schedule import Machine, StepTables, TokenPlan

__all__ = ["PreparedGraph"]

# Token plans kept per graph, the most recently used ones.
MAX_TOKEN_PLANS = 4


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
        self._plans: dict[tuple[int, int], TokenPlan] = {}

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
    def plans(self) -> dict[str, DatapathPlan]:
        """The :class:`~patflow.lowering.DatapathPlan` of every compute node."""
        return {n.name: lower_hof_node(n) for n in self.g.computes}

    @cached_property
    def reference(self) -> list[tuple]:
        """What the functional reference runs of every compute node, in
        topological order: its name, its body compiled into one loop over
        its firings from the tokens each input edge's firing takes
        (:func:`~patflow.exprs.compile_reference`), its repetitions and
        the producer port of each input edge.  Nodes with equal bodies,
        widths and input lengths share one loop."""
        nodes, loops, out = self.g.nodes, {}, []
        for name in self.topo:
            spec = nodes[name]
            if spec.kind is not NodeKind.COMPUTE:
                continue
            key = (spec.body, spec.width, tuple(e.cp.total for e in self.ins[name]))
            if key not in loops:
                loops[key] = compile_reference(*key)
            out.append((name, loops[key], self.reps[name],
                        [(e.producer, e.producer_port) for e in self.ins[name]]))
        return out

    @cached_property
    def datapaths(self) -> dict:
        """Every compute node's RTL datapath module compiled into one loop
        over a replay's steps (:func:`~patflow.rtl.lower.compile_datapath`),
        once per :func:`~patflow.rtl.lower.datapath_signature`."""
        nodes, loops, out = self.g.nodes, {}, {}
        for name, plan in self.plans.items():
            key = datapath_signature(nodes[name], plan)
            if key not in loops:
                loops[key] = compile_datapath(nodes[name], plan)
            out[name] = loops[key]
        return out

    def step_tables(self, gate_offset: int) -> StepTables:
        """The scheduler's :class:`~patflow.schedule.StepTables` at
        ``gate_offset``, built by the first machine that asks."""
        tables = self._steps.get(gate_offset)
        if tables is None:
            tables = self._steps[gate_offset] = StepTables(self.g, gate_offset)
        return tables

    def token_plan(self, iterations: int, gate_offset: int) -> TokenPlan:
        """The :class:`~patflow.schedule.TokenPlan` of a run of
        ``iterations`` at ``gate_offset`` with the default cycle budget and
        no capacity checks.  The ``MAX_TOKEN_PLANS`` most recently used are
        kept; a run that raises keeps nothing."""
        key = (iterations, gate_offset)
        plan = self._plans.pop(key, None)
        if plan is None:
            plan = TokenPlan(Machine(self.g, iterations, gate_offset=gate_offset).run())
            if len(self._plans) >= MAX_TOKEN_PLANS:
                del self._plans[next(iter(self._plans))]
        self._plans[key] = plan
        return plan
