"""Tests for value simulation and clocked-vs-combinational equivalence."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patflow import (
    equivalence_check,
    eval_combinational,
    random_stimulus,
    simulate_clocked,
    simulate_schedule,
)
from patflow.errors import FifoOverflow, ShapeMismatch
from patflow.fixtures import load_graph, names


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
        ],
    )
    def test_malformed_stimulus(self, stim, message):
        with pytest.raises(ShapeMismatch, match=message):
            simulate_clocked(load_graph("fold-pipeline"), stim)

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

    def test_trials_with_multiple_iterations(self):
        rep = equivalence_check(load_graph("fold-pipeline"), 5, seed=9, iterations=3)
        assert rep.ok

    def test_report_records_gate_offset(self):
        rep = equivalence_check(load_graph("fig2"), 3, seed=0, gate_offset=0)
        assert rep.gate_offset == 0


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
