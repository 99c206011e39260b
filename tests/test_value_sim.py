"""Tests for value simulation and clocked-vs-combinational equivalence."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patflow.prepared
from patflow import lowering
from patflow import (
    build_graph,
    equivalence_check,
    eval_combinational,
    random_stimulus,
    simulate_clocked,
    simulate_schedule,
)
from patflow.errors import FifoOverflow, PatflowError, ShapeMismatch
from patflow.fixtures import load_graph, names

from conftest import one_node_doc


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


def _report_digest(name: str) -> str:
    """Trials, mismatches and full counterexamples of seeded checks at
    iterations 1 and 3 and gate offsets -2, -1 and 0, hashed."""
    g = load_graph(name)
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
        assert _report_digest(name) == REPORT_DIGESTS[name]

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


def _sim_digests(name: str) -> list[str]:
    """Full ``simulate_clocked`` results (arrivals with their cycles, edge
    arrivals, fold traces, underflows, cycles and firing starts) on seeded
    stimulus at iterations 1 and 3 and gate offsets -2, -1 and 0, hashed.
    A run that raises contributes its exception type and message.  Each
    configuration runs twice on one graph: the first digest hashes the
    first runs, and the second the repeats, which read the token plans the
    graph kept."""
    g = load_graph(name)
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
        assert _sim_digests(name) == [SIM_DIGESTS[name]] * 2

    def test_every_fixture_is_pinned(self):
        assert sorted(SIM_DIGESTS) == names()
