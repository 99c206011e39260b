"""Tests for graph documents, validation diagnostics, and lowering plans."""

from __future__ import annotations

import copy
from dataclasses import FrozenInstanceError

import pytest

from patflow import (
    REGISTER_FIFO_MAX,
    NodeKind,
    build_graph,
    compute_repetition_vector,
    edge_gate_table,
    equivalence_check,
    lower_edges,
    lower_hof_node,
    parse_expr,
    validate_graph,
)
from patflow.errors import (
    CycleDetected,
    DanglingEdge,
    DocumentError,
    DuplicatePort,
    ExprSyntaxError,
    InconsistentRates,
    MixedNonZeroValues,
    UnknownEdge,
    UnknownNode,
)
from patflow.fixtures import load, load_graph, names
from patflow.lowering import normalized_fold


def codes(doc: dict) -> list[str]:
    return [d.code for d in validate_graph(build_graph(doc))]


DIAMOND_DOC = {
    "meta": {"name": "diamond", "iterations": 1},
    "nodes": [
        {"name": "a", "kind": "source", "width": 8, "outputs": [[1], [1]]},
        {"name": "b", "kind": "compute", "width": 8,
         "expr": "(map (lambda (x) (add x 0)) (input 0))",
         "inputs": [[0, 1]], "outputs": [[1, 1]]},
        {"name": "c", "kind": "compute", "width": 8,
         "expr": "(zipwith (lambda (x y) (add x y)) (input 0) (input 1))",
         "inputs": [[1], [1]], "outputs": [[1]]},
        {"name": "out", "kind": "sink", "width": 8, "inputs": [[1]]},
    ],
    "edges": [
        {"from": "a.0", "to": "b.0"},
        {"from": "b.0", "to": "c.0"},
        {"from": "a.1", "to": "c.1"},
        {"from": "c.0", "to": "out.0"},
    ],
}

CYCLE_DOC = {
    "meta": {"name": "cyc", "iterations": 1},
    "nodes": [
        {"name": "a", "kind": "compute", "width": 8,
         "expr": "(map (lambda (x) (add x 1)) (input 0))",
         "inputs": [[1]], "outputs": [[1]]},
        {"name": "b", "kind": "compute", "width": 8,
         "expr": "(map (lambda (x) (add x 1)) (input 0))",
         "inputs": [[1]], "outputs": [[1]]},
    ],
    "edges": [{"from": "a.0", "to": "b.0"}, {"from": "b.0", "to": "a.0"}],
}


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

class TestBuildGraph:
    def test_fig2_round_trip(self):
        g = load_graph("fig2")
        assert list(g.nodes) == ["p", "c", "out"]
        assert g.name == "fig2"
        assert g.iterations == 1
        assert [e.id for e in g.edges] == ["p.0->c.0", "c.0->out.0"]
        assert g.nodes["p"].kind is NodeKind.COMPUTE
        assert g.nodes["out"].kind is NodeKind.SINK

    def test_meta_is_optional(self):
        d = copy.deepcopy(load("fig2"))
        del d["meta"]
        g = build_graph(d)
        assert g.iterations == 1

    def test_all_fixtures_build_clean(self):
        for name in names():
            assert validate_graph(load_graph(name)) == [], name

    @pytest.mark.parametrize(
        "mutate, err, message",
        [
            (lambda d: d["nodes"][0].update(kind="wizard"), DocumentError, "unknown kind"),
            (lambda d: d["nodes"][1].pop("expr"), DocumentError, "needs an 'expr'"),
            (lambda d: d["nodes"][2].update(outputs=[[1]]), DocumentError, "takes no output"),
            (lambda d: d["nodes"][0].pop("width"), DocumentError, "positive integer 'width'"),
            (lambda d: d["edges"][0].update(**{"from": "p"}), DocumentError, "node.port"),
            (lambda d: d["edges"].append({"from": "ghost.0", "to": "c.0"}),
             UnknownNode, "unknown node 'ghost'"),
            (lambda d: d["edges"].append({"from": "p.5", "to": "c.0"}),
             DanglingEdge, "no output port 5"),
            (lambda d: d["edges"].append({"from": "p.0", "to": "c.0"}),
             DuplicatePort, "already driven"),
            (lambda d: d.update(edges=d["edges"][1:]), DanglingEdge, "feeds nothing"),
            (lambda d: d["nodes"][0].update(outputs=[[1, 2]]),
             MixedNonZeroValues, "mixes non-zero values"),
        ],
    )
    def test_document_errors(self, mutate, err, message):
        d = copy.deepcopy(load("fig2"))
        mutate(d)
        with pytest.raises(err, match=message):
            build_graph(d)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["nodes"].insert(0, {"name": "x", "kind": "sink", "width": 8,
                                             "inputs": [[1]]}),
             "input port x.0 is not driven"),
            (lambda d: d["edges"].pop(), "output port c.0 feeds nothing"),
        ],
    )
    def test_unwired_port_messages(self, mutate, message):
        d = copy.deepcopy(load("fig2"))
        mutate(d)
        with pytest.raises(DanglingEdge) as info:
            build_graph(d)
        assert str(info.value) == message

    def test_equal_bodies_are_parsed_once_per_document(self):
        doc = generated_doc_with_repeated_body()
        g1, g2 = build_graph(doc), build_graph(copy.deepcopy(doc))
        b1, b2 = g1.nodes["b1"].body, g1.nodes["b2"].body
        assert b1 is b2
        assert b1 == g2.nodes["b1"].body and b1 is not g2.nodes["b1"].body
        assert validate_graph(g1) == validate_graph(g2) == []
        with pytest.raises(FrozenInstanceError):
            b1.vec = b1
        assert g1.nodes["b2"].body == g2.nodes["b2"].body

    def test_repeated_syntax_error_raises_at_its_first_node(self):
        bad = "(map (lambda (x) (add x 1) (input 0))"
        with pytest.raises(ExprSyntaxError) as direct:
            parse_expr(bad)
        doc = generated_doc_with_repeated_body()
        doc["nodes"][1]["expr"] = doc["nodes"][3]["expr"] = bad
        # Were the first carrier skipped, this node would fail first.
        doc["nodes"][2].pop("width")
        with pytest.raises(ExprSyntaxError) as info:
            build_graph(doc)
        assert str(info.value) == str(direct.value)

    def test_source_rejects_expr(self):
        d = copy.deepcopy(load("alg1-worked"))
        d["nodes"][0]["expr"] = "(add 1 2)"
        with pytest.raises(DocumentError, match="takes no 'expr'"):
            build_graph(d)


def generated_doc_with_repeated_body() -> dict:
    """Source ``s`` feeding ``b1`` and ``c``, then ``b2``: ``b1`` and ``b2``
    carry the same body text."""
    body = "(map (lambda (x) (add x 1)) (input 0))"
    node = lambda name, expr: {"name": name, "kind": "compute", "width": 8, "expr": expr,
                               "inputs": [[1]], "outputs": [[1]]}
    return {
        "meta": {"name": "repeat", "iterations": 1},
        "nodes": [
            {"name": "s", "kind": "source", "width": 8, "outputs": [[1]]},
            node("b1", body),
            node("c", "(map (lambda (x) (mul x 2)) (input 0))"),
            node("b2", body),
            {"name": "o", "kind": "sink", "width": 8, "inputs": [[1]]},
        ],
        "edges": [{"from": "s.0", "to": "b1.0"}, {"from": "b1.0", "to": "c.0"},
                  {"from": "c.0", "to": "b2.0"}, {"from": "b2.0", "to": "o.0"}],
    }


def fold_seed_doc(seed: str, inputs: list) -> dict:
    """A multi-phase ``foldl`` node ``c`` with seed ``seed``, reducing its
    input port 0; one source per input port, one sink."""
    nodes = [
        {"name": f"s{i}", "kind": "source", "width": 8, "outputs": [p]}
        for i, p in enumerate(inputs)
    ]
    out = [0] * (len(inputs[0]) - 1) + [1]
    nodes += [
        {"name": "c", "kind": "compute", "width": 8, "inputs": inputs, "outputs": [out],
         "expr": f"(foldl (lambda (a b) (add a b)) {seed} (input 0))"},
        {"name": "o", "kind": "sink", "width": 8, "inputs": [out]},
    ]
    edges = [{"from": f"s{i}.0", "to": f"c.{i}"} for i in range(len(inputs))]
    edges.append({"from": "c.0", "to": "o.0"})
    return {"meta": {"name": "seed", "iterations": 1}, "nodes": nodes, "edges": edges}


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------

class TestValidation:
    def test_pattern_length_mismatch(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["outputs"] = [[0, 1]]
        d["nodes"][2]["inputs"] = [[0, 1]]
        assert "PatternLengthMismatch" in codes(d)

    def test_arity_mismatch(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["expr"] = "(zipwith (lambda (a b) (add a b)) (input 0) (input 1))"
        assert codes(d) == ["ArityMismatch"]

    def test_output_port_count_mismatch(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["expr"] = "(tuple (foldl1 (lambda (a b) (add a b)) (input 0)) 5)"
        assert "ShapeMismatch" in codes(d)

    def test_fold_below_root(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["expr"] = "(add (foldl1 (lambda (a b) (add a b)) (input 0)) 1)"
        assert codes(d) == ["FoldNotAtRoot"]

    def test_fold_over_derived_vector(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["expr"] = (
            "(foldl1 (lambda (a b) (add a b)) (map (lambda (x) x) (input 0)))"
        )
        assert codes(d) == ["FoldNotAtRoot"]

    def test_fold_output_before_last_phase(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["outputs"] = [[1, 0, 0]]
        d["nodes"][2]["inputs"] = [[1, 0, 0]]
        assert "FoldOutputTooEarly" in codes(d)

    def test_fold_lambda_reading_port_not_streamable(self):
        # well-typed, but the lambda reads a port besides the running value,
        # which has no per-phase meaning once the fold is streamed
        d = copy.deepcopy(load("fig2"))
        d["nodes"][1]["inputs"] = [[1, 1, 1], [0, 0, 1]]
        d["nodes"][1]["expr"] = "(foldl1 (lambda (a b) (add a (input 1))) (input 0))"
        d["nodes"].insert(0, {"name": "k", "kind": "compute", "width": 8,
                              "expr": "(const 3)", "inputs": [], "outputs": [[0, 0, 1]]})
        d["edges"].append({"from": "k.0", "to": "c.1"})
        assert "NotStreamable" in codes(d)

    @pytest.mark.parametrize(
        "expr, kind",
        [
            ("(proj (tuple (map (lambda (x) (add x 1)) (input 0)) (input 0)) 0)", "Proj"),
            ("(let ((t (tuple (input 0) (input 0)))) (proj t 1))", "Tuple"),
        ],
    )
    def test_multi_phase_body_must_be_elementwise(self, expr, kind):
        # well-typed, but a projection of a tuple has no per-lane form
        d = {
            "meta": {"name": "proj", "iterations": 1},
            "nodes": [
                {"name": "s", "kind": "source", "width": 8, "outputs": [[1, 1]]},
                {"name": "c", "kind": "compute", "width": 8, "expr": expr,
                 "inputs": [[1, 1]], "outputs": [[1, 1]]},
                {"name": "o", "kind": "sink", "width": 8, "inputs": [[1, 1]]},
            ],
            "edges": [{"from": "s.0", "to": "c.0"}, {"from": "c.0", "to": "o.0"}],
        }
        (diag,) = validate_graph(build_graph(d))
        assert diag.code == "NotStreamable"
        assert diag.message == (
            f"{kind} is not elementwise; it cannot be streamed phase by phase"
        )

    def test_elementwise_phase_value_mismatch(self):
        d = copy.deepcopy(load("dotp-1010"))
        d["nodes"][2]["inputs"] = [[10, 10], [5, 5]]
        d["nodes"][1]["outputs"] = [[5, 5]]
        got = codes(d)
        assert "ShapeMismatch" in got and got != []

    def test_sink_pattern_must_match_producer(self):
        d = copy.deepcopy(load("fig2"))
        d["nodes"][2]["inputs"] = [[0, 1, 0]]
        assert codes(d) == ["SinkPatternMismatch"]

    def test_cycle_detected(self):
        assert "CycleDetected" in codes(copy.deepcopy(CYCLE_DOC))

    def test_inconsistent_rates(self):
        assert "InconsistentRates" in codes(copy.deepcopy(DIAMOND_DOC))

    def test_let_bound_constant_seed_is_a_constant(self):
        g = build_graph(fold_seed_doc("(let ((k 3)) (add k k))", [[2, 2]]))
        assert validate_graph(g) == []
        assert lower_hof_node(g.nodes["c"]).fold_init == 6
        assert equivalence_check(g, 3, iterations=2).ok

    def test_seed_reading_an_input_is_not_a_constant(self):
        for seed in ("(input 1)", "(add (input 1) 1)", "(let ((k (input 1))) (add k 2))"):
            ds = validate_graph(build_graph(fold_seed_doc(seed, [[1, 1], [1, 0]])))
            assert [(d.code, d.message) for d in ds] == [(
                "FoldNotAtRoot",
                "a multi-phase fold's initial value must be a compile-time constant",
            )], seed

    def test_odd_seeds_are_reported_not_raised(self):
        for seed, inputs in [
            ("(input 1)", [[2, 2], [2, 0]]),
            ("(foldl1 (lambda (a b) (add a b)) (input 1))", [[2, 2], [2, 0]]),
            ("(map (lambda (x) x) (input 1))", [[1, 1], [1, 0]]),
        ]:
            ds = validate_graph(build_graph(fold_seed_doc(seed, inputs)))
            assert ds and all(d.code and d.message for d in ds), seed

    def test_diagnostics_are_reported_not_raised(self):
        ds = validate_graph(build_graph(copy.deepcopy(DIAMOND_DOC)))
        for d in ds:
            assert d.code and d.subject and d.message


# ---------------------------------------------------------------------------
# Repetition vector and traversal
# ---------------------------------------------------------------------------

class TestTopology:
    def test_fig2_repetitions(self):
        assert compute_repetition_vector(load_graph("fig2")) == {"p": 3, "c": 1, "out": 1}

    def test_worked_example_repetitions(self):
        assert compute_repetition_vector(load_graph("alg1-worked")) == {
            "src": 2, "acc": 1, "out": 1,
        }

    def test_rate_matched_pipeline_is_all_ones(self):
        assert set(compute_repetition_vector(load_graph("dotp-1010")).values()) == {1}

    def test_repetition_raises_on_conflict(self):
        g = build_graph(copy.deepcopy(DIAMOND_DOC))
        with pytest.raises(InconsistentRates, match="needs rate"):
            compute_repetition_vector(g)

    def test_topo_order_respects_edges(self):
        g = load_graph("transform-stage")
        order = g.topo_order()
        pos = {n: i for i, n in enumerate(order)}
        for e in g.edges:
            assert pos[e.producer] < pos[e.consumer]

    def test_topo_raises_on_cycle(self):
        g = build_graph(copy.deepcopy(CYCLE_DOC))
        with pytest.raises(CycleDetected, match="cycle"):
            g.topo_order()

    def test_edge_lookup(self):
        g = load_graph("fig2")
        assert g.edge("p.0->c.0").consumer == "c"
        with pytest.raises(UnknownEdge):
            g.edge("nope")

    def test_port_filtered_out_edges(self):
        g = load_graph("moments")
        assert [e.id for e in g.out_edges("stat", port=0)] == ["stat.0->total.0"]
        assert [e.id for e in g.out_edges("stat", port=1)] == ["stat.1->peak.0"]


# ---------------------------------------------------------------------------
# Datapath plans
# ---------------------------------------------------------------------------

class TestLowerHofNode:
    def test_zipwith_plan(self):
        g = load_graph("dotp-1010")
        plan = lower_hof_node(g.nodes["zw"])
        assert plan.mode == "elementwise"
        assert plan.lanes == 10
        assert plan.phases == 2
        assert dict(plan.op_counts) == {"mul": 10}
        assert plan.accumulator_width is None

    def test_fold_plan(self):
        g = load_graph("dotp-1010")
        plan = lower_hof_node(g.nodes["fl"])
        assert plan.mode == "fold"
        assert plan.lanes == 10
        assert dict(plan.op_counts) == {"add": 10}
        assert plan.accumulator_width == 18
        assert plan.fold_init == 0

    def test_lane_count_tracks_refinement(self):
        for name, lanes in [("dotp-20", 20), ("dotp-5555", 5), ("dotp-1x20", 1)]:
            plan = lower_hof_node(load_graph(name).nodes["zw"])
            assert plan.lanes == lanes, name
            assert plan.op_counts["mul"] == lanes

    def test_general_mode_single_phase_tuple(self):
        g = load_graph("moments")
        plan = lower_hof_node(g.nodes["stat"])
        assert plan.mode == "general"
        # an 8-element sum and an 8-element max, both seeded by identity
        assert plan.op_counts["add"] == 8
        assert plan.op_counts["max"] == 8

    def test_fold_identity_normalization(self):
        g = load_graph("fig2")
        fn, init, vec = normalized_fold(g.nodes["c"].body)
        assert init == 0          # add folds seed with 0
        assert vec.index == 0


# ---------------------------------------------------------------------------
# Edge lowering
# ---------------------------------------------------------------------------

class TestLowerEdges:
    def test_dotp_edge_kinds(self):
        low = lower_edges(load_graph("dotp-1010"))
        assert low["xs.0->zw.0"].kind == "fifo"
        assert low["ys.0->zw.1"].kind == "fifo"
        assert low["zw.0->fl.0"].kind == "pipeline"
        assert low["fl.0->out.0"].kind == "sink"

    def test_source_edges_always_buffer(self):
        # a source cannot be throttled, so even rate-matched source edges
        # get a real FIFO rather than the pipeline-register shortcut
        low = lower_edges(load_graph("fold-pipeline"))
        assert low["xs.0->zw.0"].kind == "fifo"
        assert low["ys.0->zw.1"].kind == "fifo"

    def test_capacity_is_consumer_total(self):
        low = lower_edges(load_graph("dotp-1010"))
        assert low["xs.0->zw.0"].capacity == 20
        assert low["zw.0->fl.0"].capacity == 10

    def test_register_vs_memory_flavor(self):
        low = lower_edges(load_graph("fold-pipeline"))
        assert low["xs.0->zw.0"].flavor == "register"       # 6 <= threshold
        big = lower_edges(load_graph("dotp-1010"))
        assert big["xs.0->zw.0"].flavor == "memory"          # 20 > threshold
        assert REGISTER_FIFO_MAX == 16

    def test_flavor_boundary(self):
        def flavor(cap):
            doc = {
                "meta": {"name": "b", "iterations": 1},
                "nodes": [
                    {"name": "s", "kind": "source", "width": 8, "outputs": [[cap]]},
                    {"name": "m", "kind": "compute", "width": 8,
                     "expr": "(map (lambda (x) x) (input 0))",
                     "inputs": [[cap]], "outputs": [[cap]]},
                    {"name": "o", "kind": "sink", "width": 8, "inputs": [[cap]]},
                ],
                "edges": [{"from": "s.0", "to": "m.0"}, {"from": "m.0", "to": "o.0"}],
            }
            return lower_edges(build_graph(doc))["s.0->m.0"].flavor

        assert flavor(REGISTER_FIFO_MAX) == "register"
        assert flavor(REGISTER_FIFO_MAX + 1) == "memory"

    def test_sized_capacities_never_shrink_below_lower_bound(self):
        # the gate table can demand a full consumer firing of tokens, so a
        # sized peak below that keeps the lower bound
        g = load_graph("dotp-1010")
        low = lower_edges(g, capacities={e.id: 4 for e in g.edges})
        assert low["xs.0->zw.0"].capacity == 20

    def test_sized_capacities_grow_with_observed_peaks(self):
        g = load_graph("dotp-1010")
        low = lower_edges(g, capacities={"xs.0->zw.0": 33})
        assert low["xs.0->zw.0"].capacity == 33
        assert low["xs.0->zw.0"].flavor == "memory"

    def test_pipeline_uses_registered_gate(self):
        g = load_graph("dotp-1010")
        low = lower_edges(g)
        # pipeline registers delay visibility by one cycle, so the matched
        # pattern needs a one-phase head start rather than zero
        assert low["zw.0->fl.0"].gate.entries == (10, 10, 20)

    def test_source_fifo_uses_same_cycle_gate(self):
        g = load_graph("dotp-1010")
        low = lower_edges(g)
        assert low["xs.0->zw.0"].gate.entries == (0, 10, 20)

    def test_gate_table_matches_edge_tables(self):
        g = load_graph("fig2")
        low = lower_edges(g)
        for e in g.edges:
            assert low[e.id].gate.entries == edge_gate_table(g, e).entries
