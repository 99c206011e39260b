"""Tests for the prepared view of a graph: what it caches and when."""

from __future__ import annotations

import copy
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patflow.prepared
from patflow import (
    EdgeSpec,
    Graph,
    NodeKind,
    NodeSpec,
    build_graph,
    equivalence_check,
    estimate_resources,
    eval_combinational,
    lower_edges,
    random_stimulus,
    simulate_clocked,
    simulate_schedule,
    validate_graph,
)
from patflow.errors import CycleDetected, Deadlock, FifoOverflow, HorizonExceeded
from patflow.fixtures import load, load_graph, names
from patflow.patterns import PatternSet, validate_pattern
from patflow.rtl import emit_verilog


@pytest.fixture
def calls(monkeypatch):
    """Count the calls the prepared view makes to each derivation."""
    counts: dict[str, int] = {}

    def counting(name):
        fn = getattr(patflow.prepared, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(patflow.prepared, name, wrapper)

    for name in ("compute_repetition_vector", "edge_gate_table", "lower_hof_node"):
        counting(name)
    return counts


class TestComputedOnce:
    @pytest.mark.parametrize("name", names())
    def test_equivalence_trials_share_one_preparation(self, calls, name):
        g = load_graph(name)
        equivalence_check(g, 5)
        equivalence_check(g, 5, iterations=2, gate_offset=-1)
        assert calls.get("compute_repetition_vector", 0) <= 1
        assert calls.get("edge_gate_table", 0) <= len(g.edges)
        assert calls.get("lower_hof_node", 0) <= len(g.computes)

    def test_counts_only_schedule_plans_nothing(self, calls):
        g = load_graph("dotp-1x20")
        simulate_schedule(g, 3)
        assert "lower_hof_node" not in calls
        assert "reference" not in vars(g.prepared)
        assert "datapaths" not in vars(g.prepared)
        # A clocked run evaluates the planned datapaths, not the reference.
        g = load_graph("dotp-1x20")
        simulate_clocked(g, random_stimulus(g, 3, seed=0))
        assert "reference" not in vars(g.prepared)
        assert set(vars(g.prepared)["datapaths"]) == {"zw", "fl"}

    def test_lowering_passes_share_gates_and_plans(self, calls):
        g = load_graph("moments")
        lower_edges(g)
        estimate_resources(g)
        emit_verilog(g)
        assert calls["edge_gate_table"] == len(g.edges)
        assert calls["lower_hof_node"] == len(g.computes)

    def test_datapaths_unroll_only_while_planning(self, monkeypatch):
        plan = patflow.prepared.lower_hof_node
        planning = []
        runs = {"planning": 0, "elsewhere": 0}

        def planned(node):
            planning.append(node)
            try:
                return plan(node)
            finally:
                planning.pop()

        monkeypatch.setattr(patflow.prepared, "lower_hof_node", planned)
        for name in ("patflow.lowering", "patflow.rtl.lower"):
            module = importlib.import_module(name)
            unroll = getattr(module, "unroll", None)
            if unroll is None:
                continue

            def counted(*args, _unroll=unroll):
                runs["planning" if planning else "elsewhere"] += 1
                return _unroll(*args)

            monkeypatch.setattr(module, "unroll", counted)
        g = load_graph("dotp-1010")
        estimate_resources(g)
        emit_verilog(g)
        emit_verilog(g)
        assert runs["planning"] > 0
        assert runs["elsewhere"] == 0

    @pytest.mark.parametrize("name", names())
    def test_trials_compile_and_lay_out_on_first_use(self, name):
        g = build_graph(load(name))
        assert validate_graph(g) == []
        assert "reference" not in vars(g.prepared)
        assert g.prepared._plans == {}
        equivalence_check(g, 1, iterations=2)
        assert {name for name, *_ in vars(g.prepared)["reference"]} == {
            n.name for n in g.computes}
        (plan,) = g.prepared._plans.values()
        equivalence_check(g, 3, iterations=2)
        assert g.prepared._plans == {(2, 0): plan}
        assert g.prepared.token_plan(2, 0) is plan

    @pytest.mark.parametrize("change, shared", [
        ({"inputs": [[1, 1, 1]], "outputs": [[1, 1, 1]]}, True),  # untimed: equal shapes
        ({"width": 9}, False),
        ({"expr": "(map (lambda (x) (add x 2)) (input 0))"}, False),
        ({"inputs": [[2]], "outputs": [[2]]}, False),
    ], ids=["patterns", "width", "body", "input-shapes"])
    def test_reference_loops_are_shared_by_body_width_and_shapes(self, change, shared):
        # ``b`` differs from ``a`` in the fields ``change`` sets; ``c``
        # equals ``a``.
        base = {"kind": "compute", "width": 8, "inputs": [[3]], "outputs": [[3]],
                "expr": "(map (lambda (x) (add x 1)) (input 0))"}
        doc = {"meta": {"name": "shared"}, "nodes": [], "edges": []}
        for name, node in (("a", base), ("b", {**base, **change}), ("c", base)):
            doc["nodes"] += [
                {"name": f"{name}s", "kind": "source", "width": node["width"],
                 "outputs": node["inputs"]},
                {**node, "name": name},
                {"name": f"{name}o", "kind": "sink", "width": node["width"],
                 "inputs": node["outputs"]}]
            doc["edges"] += [{"from": f"{name}s.0", "to": f"{name}.0"},
                             {"from": f"{name}.0", "to": f"{name}o.0"}]
        g = build_graph(doc)
        assert validate_graph(g) == []
        loops = {name: loop for name, loop, *_ in g.prepared.reference}
        assert loops["a"] is loops["c"]
        assert (loops["b"] is loops["a"]) == shared
        assert equivalence_check(g, 3, iterations=2).ok

    def test_each_graph_has_its_own_view(self):
        a, b = load_graph("fig2"), load_graph("fig2")
        assert a.prepared is a.prepared
        assert a.prepared is not b.prepared


class TestTokenPlans:
    """A clocked run keeps its token plan per (iterations, gate offset), and
    a kept plan changes no result, check or error."""

    def test_trials_run_one_machine_per_configuration(self, monkeypatch):
        runs = []
        machine = patflow.prepared.Machine

        def counted(*args, **kwargs):
            runs.append(args[1:])
            return machine(*args, **kwargs)

        monkeypatch.setattr(patflow.prepared, "Machine", counted)
        g = load_graph("dotp-1x20")
        equivalence_check(g, 5)
        equivalence_check(g, 5, iterations=2, gate_offset=-1)
        equivalence_check(g, 5)
        assert runs == [(1,), (2,)]

    def test_results_do_not_alias_the_plan(self):
        g = load_graph("dotp-1x20")
        stim = random_stimulus(g, 2, seed=5)
        want = simulate_clocked(load_graph("dotp-1x20"), stim, gate_offset=-1)
        first = simulate_clocked(g, stim, gate_offset=-1)
        assert first == want
        assert first.underflow_edges and first.fold_trace
        for starts in first.firing_starts.values():
            starts[0] += 100
            starts.append(999)
        first.firing_starts.clear()
        first.underflow_edges.append("x.0->y.0")
        for trace in first.fold_trace.values():
            trace.append(7)
        first.fold_trace.clear()
        assert simulate_clocked(g, stim, gate_offset=-1) == want

    @pytest.mark.parametrize("name", names())
    def test_capacities_overflow_after_a_kept_run(self, name):
        peaks = simulate_schedule(load_graph(name), 2).fifo_peaks
        eid = max(peaks, key=peaks.get)
        caps = {eid: peaks[eid] - 1}
        g = load_graph(name)
        stim = random_stimulus(g, 2, seed=1)
        with pytest.raises(FifoOverflow) as fresh:
            simulate_clocked(load_graph(name), stim, capacities=caps)
        simulate_clocked(g, stim)
        with pytest.raises(FifoOverflow) as kept:
            simulate_clocked(g, stim, capacities=caps)
        assert str(kept.value) == str(fresh.value)
        assert f"sized for {peaks[eid] - 1}" in str(kept.value)

    @pytest.mark.parametrize("name", names())
    def test_short_horizon_exceeded_after_a_kept_run(self, name):
        g = load_graph(name)
        stim = random_stimulus(g, 2, seed=1)
        cycles = simulate_clocked(g, stim).cycles
        with pytest.raises(HorizonExceeded) as kept:
            simulate_clocked(g, stim, horizon=cycles - 1)
        with pytest.raises(HorizonExceeded) as fresh:
            simulate_clocked(load_graph(name), stim, horizon=cycles - 1)
        assert str(kept.value) == str(fresh.value)
        assert str(kept.value) == f"no completion within {cycles - 1} cycles"

    def test_deadlock_is_raised_again_and_kept_nowhere(self):
        g = load_graph("alg1-worked")
        stim = random_stimulus(g, 1, seed=1)
        messages = []
        for _ in range(2):
            with pytest.raises(Deadlock, match="no progress") as got:
                simulate_clocked(g, stim, gate_offset=1)
            messages.append(str(got.value))
        assert messages[0] == messages[1]
        assert g.prepared._plans == {}

    def test_plans_kept_are_bounded(self):
        g = load_graph("fig2")
        for iterations in range(1, 51):
            simulate_clocked(g, iterations=iterations)
        keep = patflow.prepared.MAX_TOKEN_PLANS
        assert list(g.prepared._plans) == [(it, 0) for it in range(51 - keep, 51)]


# ---------------------------------------------------------------------------
# Adjacency and topological order
# ---------------------------------------------------------------------------


def _round_topo(g: Graph) -> list[str]:
    """Reference order: repeatedly place every node whose producers are all
    placed, in document order."""
    remaining = {
        name: {e.producer for e in g.edges if e.consumer == name} for name in g.nodes
    }
    order: list[str] = []
    while remaining:
        ready = [n for n, deps in remaining.items() if deps <= set(order)]
        if not ready:
            raise CycleDetected(f"dependency cycle among nodes {sorted(remaining)}")
        for n in ready:
            order.append(n)
            del remaining[n]
    return order


def _wired(n: int, links: list[tuple[int, int]], doc_order: list[int]) -> Graph:
    """A graph over nodes ``n0..n{n-1}`` listed in ``doc_order``, with one
    edge per link; only names and endpoints matter to the order."""
    pat = validate_pattern([1])
    nodes = {
        f"n{i}": NodeSpec(f"n{i}", NodeKind.COMPUTE, 8, PatternSet((pat,), (pat,)))
        for i in doc_order
    }
    edges = [
        EdgeSpec(f"n{a}", 0, f"n{b}", k, pat, pat) for k, (a, b) in enumerate(links)
    ]
    return Graph("wired", nodes, edges)


@st.composite
def _dags(draw):
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    doc_order = draw(st.permutations(range(n)))
    return _wired(n, links, list(doc_order))


class TestAdjacency:
    @pytest.mark.parametrize("name", names())
    def test_edges_match_a_scan(self, name):
        g = load_graph(name)
        for node in g.nodes:
            scanned = sorted(
                (e for e in g.edges if e.consumer == node), key=lambda e: e.consumer_port
            )
            assert g.in_edges(node) == scanned
            for port in range(len(g.nodes[node].patterns.outputs)):
                assert g.out_edges(node, port) == [
                    e for e in g.edges if e.producer == node and e.producer_port == port
                ]

    def test_in_edges_follow_ports_not_document_order(self):
        doc = load("dotp-1x20")
        shuffled = copy.deepcopy(doc)
        shuffled["edges"].reverse()
        g, h = build_graph(doc), build_graph(shuffled)
        assert [e.consumer_port for e in h.in_edges("zw")] == [0, 1]
        assert [e.id for e in h.in_edges("zw")] == [e.id for e in g.in_edges("zw")]
        stim = random_stimulus(g, 2, seed=3)
        assert simulate_clocked(h, stim).arrivals == simulate_clocked(g, stim).arrivals
        assert eval_combinational(h, stim) == eval_combinational(g, stim)

    @pytest.mark.parametrize("name", names())
    def test_fixture_order_matches_rounds(self, name):
        g = load_graph(name)
        assert g.topo_order() == _round_topo(g)

    @given(g=_dags())
    @settings(max_examples=200, deadline=None)
    def test_random_order_matches_rounds(self, g):
        assert g.topo_order() == _round_topo(g)

    def test_cycle_names_every_blocked_node(self):
        cyclic = _wired(4, [(0, 1), (1, 2), (2, 1), (2, 3)], [3, 2, 1, 0])
        with pytest.raises(CycleDetected) as got:
            cyclic.topo_order()
        with pytest.raises(CycleDetected) as want:
            _round_topo(cyclic)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "dependency cycle among nodes ['n1', 'n2', 'n3']"
