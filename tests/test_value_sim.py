"""Tests for value simulation and clocked-vs-combinational equivalence."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patflow.prepared
from patflow import lowering, valuesim
from patflow import (
    EquivalenceReport,
    build_graph,
    compute_repetition_vector,
    equivalence_check,
    eval_combinational,
    random_stimulus,
    simulate_clocked,
    simulate_schedule,
    validate_graph,
)
from patflow.errors import FifoOverflow, PatflowError, ShapeMismatch
from patflow.fixtures import load_graph, names
from patflow.graphs import NodeKind
from patflow.rtl import Assign, lower_design
from patflow.rtl import lower as rtl_lower

from conftest import dotp_document, generated_graph, one_node_doc
from test_rtl import datapath_module, settle


def two_port_document(width: int = 8) -> dict:
    """A source with two output ports of different patterns, each feeding
    a map through a FIFO and a sink directly; sink ``o`` takes two ports."""
    return {
        "meta": {"name": "two-port", "iterations": 1},
        "nodes": [
            {"name": "s", "kind": "source", "width": width,
             "outputs": [[1, 1, 1, 1], [0, 1, 0, 1]]},
            {"name": "c", "kind": "compute", "width": width, "inputs": [[0, 2, 0, 2]],
             "outputs": [[0, 2, 0, 2]], "expr": "(map (lambda (x) (add x 1)) (input 0))"},
            {"name": "d", "kind": "compute", "width": width, "inputs": [[1, 1]],
             "outputs": [[1, 1]], "expr": "(map (lambda (x) (mul x 3)) (input 0))"},
            {"name": "o", "kind": "sink", "width": width, "inputs": [[0, 2, 0, 2], [1, 1, 1, 1]]},
            {"name": "p", "kind": "sink", "width": width, "inputs": [[0, 1, 0, 1]]},
            {"name": "q", "kind": "sink", "width": width, "inputs": [[1, 1]]},
        ],
        "edges": [
            {"from": "s.0", "to": "c.0"},
            {"from": "s.0", "to": "o.1"},
            {"from": "s.1", "to": "d.0"},
            {"from": "s.1", "to": "p.0"},
            {"from": "c.0", "to": "o.0"},
            {"from": "d.0", "to": "q.0"},
        ],
    }


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

class TestKnownValues:
    def test_dot_product_of_one_through_six(self):
        g = load_graph("fold-pipeline")
        stim = {"xs": [[1, 2, 3, 4, 5, 6]], "ys": [[1, 2, 3, 4, 5, 6]]}
        r = simulate_clocked(g, stim)
        assert r.values("out") == [91]
        assert r.arrivals["out"] == [(3, 91)]
        assert r.cycles == 4
        assert eval_combinational(g, stim) == {"out": [91]}

    def test_running_sum_exposes_partial_results(self):
        g = load_graph("fold-pipeline")
        stim = {"xs": [[1, 2, 3, 4, 5, 6]], "ys": [[1, 2, 3, 4, 5, 6]]}
        r = simulate_clocked(g, stim)
        # products arrive two per phase: 1+4, +9+16, +25+36
        assert r.fold_trace["fl"] == [5, 30, 91]

    def test_generator_pipeline_needs_no_stimulus(self):
        r = simulate_clocked(load_graph("fig2"))
        assert r.arrivals["out"] == [(6, 3)]

    def test_multi_output_fold_pair(self):
        g = load_graph("moments")
        stim = {"xs": [[3, 1, 4, 1, 5, 9, 2, 6]]}
        assert eval_combinational(g, stim) == {"total": [31], "peak": [9]}
        r = simulate_clocked(g, stim)
        assert r.values("total") == [31]
        assert r.values("peak") == [9]

    def test_chained_elementwise_stages(self):
        g = load_graph("transform-stage")
        stim = {"xs": [[10, 20, 30, 40, 1, 2, 3, 4]]}
        assert eval_combinational(g, stim) == {"out": [386]}
        r = simulate_clocked(g, stim)
        assert r.arrivals["out"] == [(3, 386)]

    def test_values_wrap_at_width(self):
        g = load_graph("fold-pipeline")          # 8-bit datapath
        stim = {"xs": [[255, 0, 0, 0, 0, 0]], "ys": [[255, 0, 0, 0, 0, 0]]}
        # 255 * 255 = 65025 = 1 mod 256
        assert eval_combinational(g, stim) == {"out": [1]}
        assert simulate_clocked(g, stim).values("out") == [1]

    @given(
        xs=st.lists(st.integers(0, 255), min_size=6, max_size=6),
        ys=st.lists(st.integers(0, 255), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_dot_product_matches_python(self, xs, ys):
        g = load_graph("fold-pipeline")
        want = sum(x * y for x, y in zip(xs, ys)) & 0xFF
        assert simulate_clocked(g, {"xs": [xs], "ys": [ys]}).values("out") == [want]


# ---------------------------------------------------------------------------
# Stimulus handling
# ---------------------------------------------------------------------------

class TestStimulus:
    def test_iterations_inferred_from_stimulus(self):
        g = load_graph("fold-pipeline")
        stim = {"xs": [[1] * 6, [2] * 6], "ys": [[1] * 6, [1] * 6]}
        r = simulate_clocked(g, stim)
        assert r.values("out") == [6, 12]

    def test_empty_stimulus_runs_zero_iterations(self):
        g = load_graph("fold-pipeline")
        r = simulate_clocked(g, {"xs": [], "ys": []})
        assert r.values("out") == []
        assert r.cycles == 0

    @pytest.mark.parametrize(
        "stim, message",
        [
            ({"xs": [[1] * 6]}, "missing source 'ys'"),
            ({"xs": [[1] * 5], "ys": [[1] * 6]}, "expected 6 tokens, got 5"),
            ({"xs": [[1] * 6], "ys": [[1] * 6, [2] * 6]}, "iteration count"),
            ({"xs": [[1] * 6], "ys": [[1] * 6], "zw": [[1]]}, "non-source"),
            ({"xs": [[1] * 7], "ys": [[1] * 6]}, "expected 6 tokens, got 7"),
            ([[1] * 6], "stimulus must map source names to firing vectors, got list"),
            ([], "stimulus must map source names to firing vectors, got list"),
            ({"xs": [[1] * 6], "ys": 5}, "source 'ys': expected a list of firing vectors"),
            ({"xs": [[1] * 6], "ys": [(1,) * 6]},
             "source 'ys' firing 0: expected a list of 6 tokens, got tuple"),
            ({"xs": [[1] * 6], "ys": ["a"]},
             "source 'ys' firing 0: expected a list of 6 tokens, got str"),
            ({"xs": [[1] * 6, [1, 1, "a", 1, 1, 1]], "ys": [[1] * 6] * 2},
             r"source 'xs' firing 1 token 2: expected an integer in \[0, 256\), got 'a'"),
            ({"xs": [[1] * 6], "ys": [[1] * 5 + [1.0]]}, "firing 0 token 5: .* got 1.0"),
            ({"xs": [[1] * 6], "ys": [[True] * 6]}, "firing 0 token 0: .* got True"),
            ({"xs": [[256] + [1] * 5], "ys": [[1] * 6]}, "firing 0 token 0: .* got 256"),
            ({"xs": [[1] * 6], "ys": [[1, -1] * 3]}, "firing 0 token 1: .* got -1"),
        ],
    )
    def test_malformed_stimulus(self, stim, message):
        g = load_graph("fold-pipeline")
        for simulate in (simulate_clocked, eval_combinational):
            with pytest.raises(ShapeMismatch, match=message):
                simulate(g, stim)

    def test_negative_iterations_rejected(self):
        g = load_graph("fig2")
        for simulate in (simulate_clocked, eval_combinational):
            with pytest.raises(ValueError, match="iterations must be >= 0"):
                simulate(g, {"p": [[1]]}, iterations=-1)

    def test_random_stimulus_shape(self):
        g = load_graph("fold-pipeline")
        stim = random_stimulus(g, iterations=2, seed=7)
        assert set(stim) == {"xs", "ys"}
        assert all(len(v) == 6 for vs in stim.values() for v in vs)
        assert all(len(vs) == 2 for vs in stim.values())

    def test_random_stimulus_is_seeded(self):
        g = load_graph("fold-pipeline")
        assert random_stimulus(g, seed=7) == random_stimulus(g, seed=7)
        assert random_stimulus(g, seed=7) != random_stimulus(g, seed=8)

    @pytest.mark.parametrize("width", [1, 8, 16, 18, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_stimulus_draws_as_randint(self, width, seed):
        # Tokens are drawn through ``Random._randbelow``, which is what
        # ``randint`` calls: the seeded stimulus must stay the same.
        g = build_graph(dotp_document([2, 2, 2], width=width))
        rng = random.Random(seed)
        want = {name: [[rng.randint(0, 2**width - 1) for _ in range(6)] for _ in range(100)]
                for name in ("xs", "ys")}
        assert random_stimulus(g, iterations=100, seed=seed) == want

    @pytest.mark.parametrize("width", [1, 8, 16, 18, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_drawn_streams_are_checked_stimulus(self, width, seed):
        # A trial draws its tokens straight into port streams and skips the
        # stimulus check: put back into firing vectors, they are what
        # random_stimulus gives and what the check accepts.
        for g in (build_graph(dotp_document([2, 2, 2], width=width)),
                  build_graph(two_port_document(width))):
            for iterations in (1, 3):
                ports = valuesim._source_ports(g, valuesim._draw(g, iterations, seed))
                stim = {}
                for src in g.sources:
                    totals = [p.total for p in src.patterns.outputs]
                    firings = len(ports[src.name, 0]) // totals[0]
                    stim[src.name] = [
                        [t for port, n in enumerate(totals)
                         for t in ports[src.name, port][k * n : (k + 1) * n]]
                        for k in range(firings)]
                assert stim == random_stimulus(g, iterations, seed=seed)
                assert valuesim._stimulus_iterations(g, stim, iterations) == iterations

    def test_random_stimulus_respects_width(self):
        g = load_graph("dotp-20")                # 18-bit sources
        stim = random_stimulus(g, iterations=4, seed=0)
        values = [x for vs in stim.values() for v in vs for x in v]
        assert all(0 <= x < 2**18 for x in values)
        assert max(values) >= 2**17              # actually uses the range


# ---------------------------------------------------------------------------
# Consistency with the count-mode scheduler
# ---------------------------------------------------------------------------

class TestClockedConsistency:
    def test_starts_match_schedule(self):
        for name in names():
            g = load_graph(name)
            for iterations in (1, 3):
                s = simulate_schedule(g, iterations)
                stim = random_stimulus(g, iterations, seed=5)
                r = simulate_clocked(g, stim, iterations=iterations)
                assert r.firing_starts == s.firing_starts, (name, iterations)
                assert r.cycles == s.horizon, (name, iterations)

    def test_no_underflow_on_valid_designs(self):
        for name in names():
            g = load_graph(name)
            r = simulate_clocked(g, random_stimulus(g, seed=5))
            assert r.underflow_edges == [], name

    def test_combinational_agrees_on_every_fixture(self):
        for name in names():
            g = load_graph(name)
            stim = random_stimulus(g, iterations=2, seed=42)
            comb = eval_combinational(g, stim)
            clocked = simulate_clocked(g, stim)
            for sink, vals in comb.items():
                assert clocked.values(sink) == vals, (name, sink)

    def test_undersized_capacity_overflows(self):
        g = load_graph("fig2")
        with pytest.raises(FifoOverflow):
            simulate_clocked(g, capacities={"p.0->c.0": 1})


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

class TestEquivalence:
    def test_valid_design_has_no_mismatches(self):
        rep = equivalence_check(load_graph("fold-pipeline"), 25, seed=3)
        assert rep.trials == 25
        assert rep.mismatches == 0
        assert rep.ok
        assert rep.counterexamples == []

    def test_all_fixtures_pass(self):
        for name in names():
            rep = equivalence_check(load_graph(name), 10, seed=0)
            assert rep.ok, (name, rep.counterexamples[:1])

    def test_loosened_gate_is_caught(self):
        rep = equivalence_check(load_graph("dotp-1x20"), 10, seed=1, gate_offset=-1)
        assert rep.mismatches == 10
        assert not rep.ok

    def test_counterexamples_attribute_the_underflow(self):
        rep = equivalence_check(load_graph("dotp-1x20"), 5, seed=1, gate_offset=-1)
        assert len(rep.counterexamples) == 3      # capped
        ce = rep.counterexamples[0]
        assert ce["underflows"] == ["zw.0->fl.0"]
        assert ce["expected"] != ce["clocked"]
        assert set(ce["stimulus"]) == {"xs", "ys"}

    def test_counterexample_cap_is_configurable(self):
        rep = equivalence_check(load_graph("dotp-1x20"), 5, seed=1,
                                gate_offset=-1, max_counterexamples=1)
        assert len(rep.counterexamples) == 1
        assert rep.mismatches == 5

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            equivalence_check(load_graph("fig2"), -1)
        assert equivalence_check(load_graph("fig2"), 0).trials == 0

    def test_trials_with_multiple_iterations(self):
        rep = equivalence_check(load_graph("fold-pipeline"), 5, seed=9, iterations=3)
        assert rep.ok

    def test_report_records_gate_offset(self):
        rep = equivalence_check(load_graph("fig2"), 3, seed=0, gate_offset=0)
        assert rep.gate_offset == 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            equivalence_check(load_graph("dotp-20"), 1, iterations=-1)

    def test_a_trial_is_one_clocked_run_read_by_its_streams(self, monkeypatch):
        # Tracing counts a check's clocked cycles at simulate_clocked, so
        # every trial goes through it; the check compares the streams and
        # leaves the stamps and copies of the result unbuilt.
        results = []

        def recording(*args, **kwargs):
            results.append(simulate_clocked(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(valuesim, "simulate_clocked", recording)
        assert equivalence_check(load_graph("dotp-1x20"), 3, iterations=2).ok
        assert len(results) == 3
        lazy = {"arrivals", "edge_arrivals", "firing_starts", "fold_trace"}
        assert not any(lazy & vars(r).keys() for r in results)

    def test_one_item_tuple_body_streams_its_vector(self):
        # A one-port node whose body is ``(tuple v)`` streams the elements
        # of ``v``, not ``v`` as one token.
        g = build_graph(one_node_doc(
            "(tuple (map (lambda (x) (add x 1)) (input 0)))", [[2, 2]], [[2, 2]]))
        assert eval_combinational(g, {"s0": [[1, 2, 3, 4]]}) == {"o": [2, 3, 4, 5]}
        assert equivalence_check(g, 5).ok


def composed_check(g, trials: int, *, seed: int, iterations: int, gate_offset: int,
                   max_counterexamples: int = 3) -> EquivalenceReport:
    """The equivalence check composed of public calls, one trial at a time:
    ``random_stimulus`` on a seed from ``random.Random(seed)``, the sinks'
    ``eval_combinational`` streams cut per input edge, and
    ``simulate_clocked``'s per-edge arrivals."""
    rng = random.Random(seed)
    reps = compute_repetition_vector(g)
    sink_edges = [e for e in g.edges if g.nodes[e.consumer].kind is NodeKind.SINK]
    report = EquivalenceReport(trials=trials, mismatches=0, gate_offset=gate_offset)
    for _ in range(trials):
        stim = random_stimulus(g, iterations, seed=rng.getrandbits(64))
        functional = eval_combinational(g, stim, iterations=iterations)
        clocked = simulate_clocked(g, stim, iterations=iterations, gate_offset=gate_offset)
        expected, taken = {}, dict.fromkeys(functional, 0)
        for e in sorted(sink_edges, key=lambda e: e.consumer_port):
            n = reps[e.consumer] * iterations * e.cp.total
            expected[e.id] = functional[e.consumer][taken[e.consumer] : taken[e.consumer] + n]
            taken[e.consumer] += n
        bad = False
        for e in sink_edges:
            got = [v for _, v in clocked.edge_arrivals[e.id]]
            if got != expected[e.id]:
                bad = True
                if len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append({
                        "edge": e.id, "stimulus": stim, "expected": expected[e.id],
                        "clocked": got, "underflows": clocked.underflow_edges})
        report.mismatches += bad
    return report


def _outcome(check, g, **kw):
    try:
        return check(g, 3, seed=5, **kw)
    except PatflowError as exc:
        return type(exc).__name__, str(exc)


ORACLE_GRAPHS = (
    [(name, lambda name=name: load_graph(name)) for name in names()]
    + [(f"{fam}-{size}", lambda fam=fam, size=size: generated_graph(fam, size, 3))
       for fam in ("chain", "fanout", "tuple", "folds", "mismatch") for size in (8, 14, 24)]
    + [("two-port", lambda: build_graph(two_port_document()))]
)


class TestComposedOracle:
    """The flat-stream trial gives exactly the report of the composed one."""

    @pytest.mark.parametrize("label, make", ORACLE_GRAPHS, ids=[lb for lb, _ in ORACLE_GRAPHS])
    def test_reports_equal_the_composition(self, label, make):
        g = make()
        caught = 0
        for iterations in (1, 4):
            for gate_offset in (0, -1, -2):
                kw = {"iterations": iterations, "gate_offset": gate_offset}
                want = _outcome(composed_check, g, **kw)
                assert _outcome(equivalence_check, g, **kw) == want, kw
                caught += isinstance(want, EquivalenceReport) and want.mismatches
        if label in ("dotp-1x20", "two-port"):
            assert caught  # the comparison covers counterexamples too


# ---------------------------------------------------------------------------
# Unroll mutants: the clocked run evaluates the planned netlists, so a wrong
# unroll shows as a mismatch against the functional reference.
# ---------------------------------------------------------------------------

MIN_MAP = "(map (lambda (x) (min x 7)) (input 0))"
CONST_IN_MAP = "(map (lambda (x) (add x (mul 2 3))) (input 0))"


def swap_min_for_max(monkeypatch):
    prim = lowering._Recorder.prim
    monkeypatch.setattr(lowering._Recorder, "prim",
                        lambda rec, op, a, b: prim(rec, "max" if op == "min" else op, a, b))


def drop_last_lane(monkeypatch):
    plan = patflow.prepared.lower_hof_node

    def lane_zero_twice(node):
        p = plan(node)
        nets = list(p.netlists)
        for k in range(0, len(nets), p.lanes):
            nets[k + p.lanes - 1] = nets[k]
        return replace(p, netlists=tuple(nets))

    monkeypatch.setattr(patflow.prepared, "lower_hof_node", lane_zero_twice)


def misfold_constants(monkeypatch):
    fold = lowering.apply_prim
    monkeypatch.setattr(lowering, "apply_prim", lambda op, a, b, mask: fold(op, a, b, mask) ^ 1)


class TestUnrollMutants:
    @pytest.mark.parametrize(
        "mutate, body",
        [(swap_min_for_max, MIN_MAP), (drop_last_lane, MIN_MAP),
         (misfold_constants, CONST_IN_MAP)],
    )
    def test_wrong_unroll_is_caught(self, monkeypatch, mutate, body):
        doc = one_node_doc(body, [[2, 2]], [[2, 2]])
        assert equivalence_check(build_graph(doc), 50).ok
        mutate(monkeypatch)
        g = build_graph(doc)
        assert g.prepared.plans["c"].mode == "elementwise"
        assert equivalence_check(g, 50).mismatches


# ---------------------------------------------------------------------------
# Datapath mutants: the clocked run evaluates the RTL's datapath modules, so a
# fault in the emitted fold logic shows as a mismatch.
# ---------------------------------------------------------------------------


def no_idle_hold(monkeypatch):
    """The fold's accumulator no longer holds through a phase that reads
    nothing: every phase counts as one that reads."""
    monkeypatch.setattr(rtl_lower, "_nz_mux", lambda leaf, phase, pattern: leaf[1, 1])


def no_stage0_bypass(monkeypatch):
    """An unseeded fold applies its first operator in the first phase too,
    instead of starting from the first token."""
    fold = rtl_lower._fold_datapath

    def mutant(body, leaf, *args):
        fold(body, leaf, *args)
        body.assigns[:] = [Assign(a.target, a.value.orelse) if a.target == "stage0" else a
                           for a in body.assigns]

    monkeypatch.setattr(rtl_lower, "_fold_datapath", mutant)


FOLD_ADD = {
    "foldl1": "(foldl1 (lambda (a b) (add a b)) (input 0))",
    "foldl": "(foldl (lambda (a b) (add a b)) 7 (input 0))",
}


class TestDatapathMutants:
    # An idle phase shows the stream's next unread words on its bus; [0, 2, 2]
    # is left out, since its first reading phase re-seeds the fold.
    @pytest.mark.parametrize("pattern", [[2, 0, 2], [2, 2, 0]])
    @pytest.mark.parametrize("head", sorted(FOLD_ADD))
    def test_missing_idle_hold_is_caught(self, monkeypatch, head, pattern):
        self.check_caught(monkeypatch, no_idle_hold, FOLD_ADD[head], pattern)

    @pytest.mark.parametrize("pattern", [[2, 2], [2, 0, 2], [1, 1, 1]])
    def test_missing_stage0_bypass_is_caught(self, monkeypatch, pattern):
        body = "(foldl1 (lambda (a b) (sub a b)) (input 0))"
        self.check_caught(monkeypatch, no_stage0_bypass, body, pattern)

    @staticmethod
    def check_caught(monkeypatch, mutate, body, pattern):
        doc = one_node_doc(body, [pattern], [[0] * (len(pattern) - 1) + [1]])
        assert equivalence_check(build_graph(doc), 5, iterations=2).ok
        mutate(monkeypatch)
        g = build_graph(doc)
        assert g.prepared.plans["c"].mode == "fold"
        assert equivalence_check(g, 5, iterations=2).mismatches


# ---------------------------------------------------------------------------
# Which steps the replay evaluates
# ---------------------------------------------------------------------------


MAP_NODE = {"kind": "compute", "width": 8, "expr": MIN_MAP, "inputs": [[2, 2]],
            "outputs": [[2, 2]]}
FOLD_NODE = {**MAP_NODE, "expr": FOLD_ADD["foldl"], "outputs": [[0, 1]]}


def recording_loop(g, name: str) -> list:
    """Put a recorder in front of ``name``'s compiled loop; it lists, per
    call, the firing count and every input's buses the loop is handed."""
    loop, seen = g.prepared.datapaths[name], []

    def recording(firings, *ins):
        buses = [list(bus) for bus in ins]
        seen.append((firings, buses))
        return loop(firings, *map(iter, buses))

    recording.phases = loop.phases
    g.prepared.datapaths[name] = recording
    return seen


class TestReplaySteps:
    def test_elementwise_node_evaluates_only_steps_that_move_tokens(self):
        g = build_graph(one_node_doc(MIN_MAP, [[2, 0, 2, 0]], [[2, 0, 2, 0]]))
        assert g.prepared.datapaths["c"].phases == (0, 2)
        seen = recording_loop(g, "c")
        stim = random_stimulus(g, 3, seed=1)
        r = simulate_clocked(g, stim, iterations=3)
        ((firings, (buses,)),) = seen
        assert firings == len(r.firing_starts["c"]) == 3
        # Two steps per firing, each taking the next two tokens.
        tokens = [t for v in stim["s0"] for t in v]
        assert [list(b) for b in buses] == [tokens[k : k + 2] for k in range(0, 12, 2)]
        assert r.values("o") == eval_combinational(g, stim)["o"]

    def test_fold_evaluates_every_phase(self):
        g = build_graph(one_node_doc(FOLD_ADD["foldl1"], [[2, 0, 2]], [[0, 0, 1]]))
        assert g.prepared.datapaths["c"].phases == (0, 1, 2)
        seen = recording_loop(g, "c")
        simulate_clocked(g, {"s0": [[1, 2, 3, 4], [5, 6, 7, 8]]})
        ((firings, (buses,)),) = seen
        assert firings == 2
        # The idle phase shows the next unread words.
        assert [list(b) for b in buses] == [[1, 2], [3, 4], [3, 4], [5, 6], [7, 8], [7, 8]]

    def test_fold_with_an_idle_phase_keeps_its_trace(self):
        g = build_graph(one_node_doc(FOLD_ADD["foldl1"], [[2, 0, 2]], [[0, 0, 1]]))
        r = simulate_clocked(g, {"s0": [[1, 2, 3, 4], [5, 6, 7, 8]]})
        assert r.fold_trace == {"c": [3, 3, 10, 11, 11, 26]}
        assert r.values("o") == [10, 26]
        assert equivalence_check(g, 5, iterations=2).ok


class TestCompiledLoops:
    def test_equal_signatures_share_one_loop(self):
        g = generated_graph("chain", 24)
        loops = g.prepared.datapaths
        by_signature = {}
        for node in g.computes:
            key = rtl_lower.datapath_signature(node, g.prepared.plans[node.name])
            by_signature.setdefault(key, set()).add(id(loops[node.name]))
        assert all(len(ids) == 1 for ids in by_signature.values())
        assert len(by_signature) < len(g.computes)  # some nodes do share
        assert len({id(f) for f in loops.values()}) == len(by_signature)

    @pytest.mark.parametrize("base, change", [
        (MAP_NODE, {"width": 9}),
        (MAP_NODE, {"inputs": [[2, 0]], "outputs": [[2, 0]]}),
        (MAP_NODE, {"inputs": [[1, 1, 1, 1]], "outputs": [[1, 1, 1, 1]]}),
        (MAP_NODE, {"expr": "(map (lambda (x) (max x 7)) (input 0))"}),
        (MAP_NODE, {"expr": FOLD_ADD["foldl"], "outputs": [[0, 1]]}),
        (FOLD_NODE, {"expr": FOLD_ADD["foldl"].replace(" 7 ", " 8 ")}),
        (FOLD_NODE, {"expr": FOLD_ADD["foldl1"]}),
    ], ids=["width", "patterns", "lanes-and-length", "netlists", "mode", "fold-init",
            "seedless"])
    def test_a_differing_field_gets_its_own_loop(self, base, change):
        # ``b`` differs from ``a`` in the fields ``change`` sets; ``c``
        # equals ``a``.
        nodes = [{**base, "name": "a"}, {**base, **change, "name": "b"}, {**base, "name": "c"}]
        doc = {"meta": {"name": "signatures"}, "nodes": [], "edges": []}
        for n in nodes:
            name, width = n["name"], n["width"]
            doc["nodes"] += [
                {"name": f"{name}s", "kind": "source", "width": width, "outputs": n["inputs"]},
                n, {"name": f"{name}o", "kind": "sink", "width": width, "inputs": n["outputs"]}]
            doc["edges"] += [{"from": f"{name}s.0", "to": f"{name}.0"},
                             {"from": f"{name}.0", "to": f"{name}o.0"}]
        g = build_graph(doc)
        assert validate_graph(g) == []
        loops, plans = g.prepared.datapaths, g.prepared.plans
        sig = {name: rtl_lower.datapath_signature(g.nodes[name], plans[name]) for name in "abc"}
        assert sig["a"] == sig["c"] and sig["a"] != sig["b"]
        assert loops["a"] is loops["c"]
        assert loops["b"] is not loops["a"]
        assert equivalence_check(g, 3, iterations=2).ok


def stepped_replay(g, stimulus: dict, iterations: int, gate_offset: int) -> dict:
    """What ``simulate_clocked`` gives, one step at a time along the token
    plan: every compute port's stream, each sink edge's ``(cycle, value)``
    arrivals and each fold's trace.

    Nodes go in topological order, and every firing of a node through its
    phases: all of them in a fold, otherwise those that move tokens.  Each
    input bus shows the next unread words of its stream, as many real ones
    as the plan says the read found (zeros after them), or the next full
    bus (zeros past the end) in a phase that reads nothing.  The emitted
    datapath module then settles (``settle``), a port's words are taken in
    the phases its pattern writes, and a fold's ``acc_q`` starts each
    firing at its seed and loads ``result`` after every phase."""
    prep = g.prepared
    plan = prep.token_plan(iterations, gate_offset)
    design = lower_design(g)
    stamped = {}
    for src in g.sources:
        at = 0
        for port, p in enumerate(src.patterns.outputs):
            stream = [t for v in stimulus[src.name] for t in v[at : at + p.total]]
            stamps = [s + ph for s in plan.starts[src.name]
                      for ph, c in enumerate(p.phases) for _ in range(c)]
            stamped[src.name, port] = list(zip(stamps, stream))
            at += p.total
    traces = {}
    for name in prep.topo:
        node = g.nodes[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        module = datapath_module(design, name)
        fold = prep.plans[name].mode == "fold"
        width, mask = node.width, (1 << node.width) - 1
        edges = prep.ins[name]
        streams = [[v for _, v in stamped[e.producer, e.producer_port]] for e in edges]
        heads = [0] * len(edges)
        outs = [[] for _ in node.patterns.outputs]
        trace = []
        for f, start in enumerate(plan.starts[name]):
            acc = prep.plans[name].fold_init or 0
            for ph in range(node.length):
                if not fold and not any(p.phases[ph] for p in node.patterns.all_patterns):
                    continue
                env = {"phase": ph, "firing": 1, "acc_q": acc}
                for i, (e, reads) in enumerate(zip(edges, plan.reads[name])):
                    c, stream = e.cp.phases[ph], streams[i]
                    got = c if reads is None else reads[f * node.length + ph]
                    shown = got if c else min(e.cp.value, len(stream) - heads[i])
                    words = stream[heads[i] : heads[i] + shown] + [0] * (e.cp.value - shown)
                    env[f"in{i}"] = sum(w << (k * width) for k, w in enumerate(words))
                    heads[i] += got
                settle(module, env)
                for k, p in enumerate(node.patterns.outputs):
                    if p.phases[ph]:
                        outs[k] += [(start + ph, (env[f"out{k}"] >> (j * width)) & mask)
                                    for j in range(p.value)]
                if fold:
                    acc = env["result"]
                    trace.append(acc)
        stamped.update(((name, k), out) for k, out in enumerate(outs))
        if trace:
            traces[name] = trace
    sink_edges = [e for e in g.edges if g.nodes[e.consumer].kind is NodeKind.SINK]
    return {
        "streams": {key: [v for _, v in out] for key, out in stamped.items()
                    if g.nodes[key[0]].kind is NodeKind.COMPUTE},
        "edge_arrivals": {e.id: stamped[e.producer, e.producer_port] for e in sink_edges},
        "fold_trace": traces,
    }


OPS = ("add", "sub", "mul", "min", "max")


@st.composite
def patterns(draw):
    """A pattern of 1 to 4 phases over {0, n}, n from 1 to 3."""
    length = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    moves = draw(st.lists(st.booleans(), min_size=length, max_size=length).filter(any))
    return [n if m else 0 for m in moves]


@st.composite
def one_node_cases(draw):
    """A valid one-node document of a map, zipwith, foldl, foldl1 or
    two-port tuple body over a pattern that may have idle phases, with an
    iteration count, a gate offset and a stimulus seed."""
    pattern = draw(patterns())
    length = len(pattern)
    op, other = draw(st.sampled_from(OPS)), draw(st.sampled_from(OPS))
    k = draw(st.integers(0, 255))
    last = [[0] * (length - 1) + [1]]
    kind = draw(st.sampled_from(["map", "zipwith", "foldl", "foldl1", "tuple"]))
    expr, inputs, outputs = {
        "map": (f"(map (lambda (x) ({op} x {k})) (input 0))", [pattern], [pattern]),
        "zipwith": (f"(zipwith (lambda (a b) ({op} a b)) (input 0) (input 1))",
                    [pattern, pattern], [pattern]),
        "foldl": (f"(foldl (lambda (a b) ({op} a b)) {k} (input 0))", [pattern], last),
        "foldl1": (f"(foldl1 (lambda (a b) ({op} a b)) (input 0))", [pattern], last),
        "tuple": (f"(tuple (map (lambda (x) ({op} x {k})) (input 0)) "
                  f"(map (lambda (x) ({other} x 3)) (input 0)))", [pattern], [pattern] * 2),
    }[kind]
    doc = one_node_doc(expr, inputs, outputs)
    if draw(st.booleans()):
        # Input 0 comes through a map stage of its own pattern, so that a
        # loosened gate lets ``c`` read before its tokens are there.
        stage = draw(patterns())
        doc["nodes"][0]["outputs"] = [stage]
        doc["nodes"].append({"name": "u", "kind": "compute", "width": 8, "inputs": [stage],
                             "outputs": [stage], "expr": "(map (lambda (x) (add x 1)) (input 0))"})
        doc["edges"][0] = {"from": "s0.0", "to": "u.0"}
        doc["edges"].append({"from": "u.0", "to": "c.0"})
    return (doc, draw(st.integers(1, 3)), draw(st.sampled_from([0, -1, -2])),
            draw(st.integers(0, 2**16)))


class TestSteppedOracle:
    """The compiled loops give what the emitted datapath modules give when
    they settle step by step."""

    @given(case=one_node_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_node_documents(self, case):
        doc, iterations, gate_offset, seed = case
        g = build_graph(doc)
        assert validate_graph(g) == []
        stim = random_stimulus(g, iterations, seed=seed)
        r = simulate_clocked(g, stim, iterations=iterations, gate_offset=gate_offset)
        want = stepped_replay(g, stim, iterations, gate_offset)
        assert {key: r._streams[key] for key in want["streams"]} == want["streams"]
        assert r.edge_arrivals == want["edge_arrivals"]
        assert r.arrivals["o"] == sorted(
            (tv for e in g.prepared.ins["o"] for tv in want["edge_arrivals"][e.id]),
            key=lambda tv: tv[0])
        assert r.fold_trace == want["fold_trace"]

    @pytest.mark.parametrize("label, make", ORACLE_GRAPHS, ids=[lb for lb, _ in ORACLE_GRAPHS])
    def test_whole_designs(self, label, make):
        g = make()
        for iterations, gate_offset in ((1, 0), (2, -1), (2, -2)):
            stim = random_stimulus(g, iterations, seed=3)
            r = simulate_clocked(g, stim, iterations=iterations, gate_offset=gate_offset)
            want = stepped_replay(g, stim, iterations, gate_offset)
            assert {key: r._streams[key] for key in want["streams"]} == want["streams"]
            assert r.edge_arrivals == want["edge_arrivals"]
            assert r.fold_trace == want["fold_trace"]
            starts = [r.firing_starts[name][0] for name in r.fold_trace]
            assert starts == sorted(starts)


# Digest of every report ``_report_digest`` makes, recorded from the
# interpreter that walked the expression tree on every evaluation and
# rebuilt rates, gate tables and plans for every trial.
REPORT_DIGESTS = {
    "alg1-worked": "f3401f1218b30b7a",
    "dotp-1010": "db13d4cbdb21be39",
    "dotp-1x20": "e8ff0b27f0227128",
    "dotp-20": "db13d4cbdb21be39",
    "dotp-2261": "25b488216d0b1904",
    "dotp-5555": "db13d4cbdb21be39",
    "fig2": "b43fa0d0f7913896",
    "fold-pipeline": "817d168fbea40e8e",
    "moments": "db13d4cbdb21be39",
    "transform-stage": "db13d4cbdb21be39",
}


def _report_digest(g) -> str:
    """Trials, mismatches and full counterexamples of seeded checks at
    iterations 1 and 3 and gate offsets -2, -1 and 0, hashed."""
    h = hashlib.sha256()
    for iterations in (1, 3):
        for offset in (-2, -1, 0):
            r = equivalence_check(g, 5, seed=7, iterations=iterations, gate_offset=offset)
            h.update(json.dumps([r.trials, r.mismatches, r.counterexamples],
                                sort_keys=True).encode())
    return h.hexdigest()[:16]


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_reports_are_unchanged(self, name):
        assert _report_digest(load_graph(name)) == REPORT_DIGESTS[name]

    def test_every_fixture_is_pinned(self):
        assert sorted(REPORT_DIGESTS) == names()


# Digest of every result ``_sim_digests`` makes, recorded from the machine
# that carried token values through its FIFOs cycle by cycle.
SIM_DIGESTS = {
    "alg1-worked": "15bb6fdc961738e0",
    "dotp-1010": "f2e6a3bd0e88fb2c",
    "dotp-1x20": "7ad661919cae3074",
    "dotp-20": "f71cb3ebe3785f59",
    "dotp-2261": "ddacc9456f2230fa",
    "dotp-5555": "86278cd3be9732a9",
    "fig2": "875f22074dd6d8ee",
    "fold-pipeline": "bc65c5a1a6252b7b",
    "moments": "7fbd6355cf15f211",
    "transform-stage": "0bb9b2217f868672",
}


def _sim_digests(g) -> list[str]:
    """Full ``simulate_clocked`` results (arrivals with their cycles, edge
    arrivals, fold traces, underflows, cycles and firing starts) on seeded
    stimulus at iterations 1 and 3 and gate offsets -2, -1 and 0, hashed.
    A run that raises contributes its exception type and message.  Each
    configuration runs twice on one graph: the first digest hashes the
    first runs, and the second the repeats, which read the token plans the
    graph kept."""
    hashes = [hashlib.sha256(), hashlib.sha256()]
    for iterations in (1, 3):
        stim = random_stimulus(g, iterations, seed=11)
        for offset in (-2, -1, 0):
            for h in hashes:
                try:
                    r = simulate_clocked(g, stim, iterations=iterations, gate_offset=offset)
                except PatflowError as exc:
                    record = [type(exc).__name__, str(exc)]
                else:
                    record = [
                        list(r.arrivals.items()),
                        list(r.edge_arrivals.items()),
                        list(r.fold_trace.items()),
                        r.underflow_edges,
                        r.cycles,
                        list(r.firing_starts.items()),
                    ]
                h.update(json.dumps(record).encode())
    return [h.hexdigest()[:16] for h in hashes]


class TestPinnedSimResults:
    @pytest.mark.parametrize("name", names())
    def test_results_are_unchanged(self, name):
        assert _sim_digests(load_graph(name)) == [SIM_DIGESTS[name]] * 2

    def test_every_fixture_is_pinned(self):
        assert sorted(SIM_DIGESTS) == names()


# ``_report_digest`` and ``_sim_digests`` of the benchmark generator's
# 24-node seed-0 design of every family, recorded from the replay that
# called each node's datapath once per evaluated phase.  Under a gate
# offset of -1 or -2 the reads of every family but ``chain`` come up short,
# so the padded and sliced reads are covered as well as the full-bus ones.
GENERATED_DIGESTS = {
    "chain": ("db13d4cbdb21be39", "4492f9e1d8e41788"),
    "fanout": ("234005b536eb7332", "f594137e25f1033e"),
    "folds": ("710f5d5bdc7aa5ba", "5a92e0a12dd59d8e"),
    "mismatch": ("fba5a76aec06c86c", "b163d0837b59b2b9"),
    "tuple": ("c0c14ef782ecf6fe", "e931bc6306432b93"),
}


class TestPinnedGeneratedDesigns:
    @pytest.mark.parametrize("family", sorted(GENERATED_DIGESTS))
    def test_reports_and_results_are_unchanged(self, family):
        g = generated_graph(family, 24, 0)
        report, sims = GENERATED_DIGESTS[family]
        assert _report_digest(g) == report
        assert _sim_digests(g) == [sims] * 2

    def test_every_family_is_pinned(self):
        assert sorted(GENERATED_DIGESTS) == sorted(("chain", "fanout", "tuple", "folds",
                                                    "mismatch"))
