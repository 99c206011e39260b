"""Tests for the cycle-accurate schedule simulator."""

from __future__ import annotations

import json

import pytest

from patflow import (
    NodeKind,
    render_gantt,
    schedule_to_json,
    simulate_schedule,
    size_fifos,
    timing_report,
)
from patflow.errors import Deadlock, FifoOverflow, HorizonExceeded
from patflow.fixtures import load_graph, names
from patflow.schedule import Machine


def replay_occupancy(g, s) -> dict[str, list[int]]:
    """Rebuild every buffered edge's occupancy trace from the firing starts
    and the patterns alone.

    Tokens from a source count from the cycle they are made, tokens from a
    compute node from the next cycle, and each cycle's value is taken after
    that supply and before the consumer takes its tokens for the cycle.
    """
    out = {}
    for e in g.edges:
        if g.nodes[e.consumer].kind is NodeKind.SINK:
            continue
        delay = 0 if g.nodes[e.producer].kind is NodeKind.SOURCE else 1
        change = [0] * (s.horizon + 2)
        for start in s.firing_starts[e.producer]:
            for k, n in enumerate(e.pp.phases):
                change[start + k + delay] += n
        for start in s.firing_starts[e.consumer]:
            for k, n in enumerate(e.cp.phases):
                change[start + k + 1] -= n
        occ, trace = 0, []
        for t in range(s.horizon):
            occ += change[t]
            trace.append(occ)
        out[e.id] = trace
    return out


# ---------------------------------------------------------------------------
# Pinned timelines
# ---------------------------------------------------------------------------

class TestPinnedTimelines:
    def test_two_rate_pipeline(self):
        g = load_graph("fig2")
        s = simulate_schedule(g)
        assert s.firing_starts == {"p": [0, 2, 4], "c": [4]}
        assert s.last_sink_cycle == 6
        assert timing_report(s, g).latency_cycles == 7
        assert size_fifos(s, g) == {"p.0->c.0": 2}

    def test_two_rate_pipeline_occupancy_trace(self):
        g = load_graph("fig2")
        s = simulate_schedule(g)
        assert s.per_edge_occupancy["p.0->c.0"] == [0, 0, 1, 1, 2, 1, 1]

    @pytest.mark.parametrize(
        "name, latency",
        [
            ("dotp-20", 2),
            ("dotp-1010", 3),
            ("dotp-5555", 5),
            ("dotp-1x20", 21),
        ],
    )
    def test_dot_product_latency_column(self, name, latency):
        g = load_graph(name)
        s = simulate_schedule(g)
        assert timing_report(s, g).latency_cycles == latency

    def test_matched_pipeline_starts_back_to_back(self):
        g = load_graph("fold-pipeline")
        s = simulate_schedule(g)
        assert s.firing_starts["zw"] == [0]
        assert s.firing_starts["fl"] == [1]    # one-cycle pipeline register lag
        assert s.last_sink_cycle == 3

    def test_burst_consumer_waits_for_whole_firing(self):
        g = load_graph("dotp-2261")
        s = simulate_schedule(g)
        assert s.firing_starts["fl"] == [3]    # all 6 tokens registered at t=3
        assert timing_report(s, g).latency_cycles == 4

    def test_worked_example_timeline(self):
        g = load_graph("alg1-worked")
        s = simulate_schedule(g)
        assert s.firing_starts == {"src": [0, 3], "acc": [3]}
        assert size_fifos(s, g)["src.0->acc.0"] == 2


# ---------------------------------------------------------------------------
# Start-time minimality
# ---------------------------------------------------------------------------

class TestAsapStarts:
    def test_consumer_start_is_earliest_gated_cycle(self):
        # reconstruct the gate check by hand from the occupancy trace: at
        # every cycle before the recorded start, the threshold must fail
        g = load_graph("fig2")
        s = simulate_schedule(g)
        occ = s.per_edge_occupancy["p.0->c.0"]
        gate = {0: 2, 1: 2, None: 3}            # per producer phase, idle last
        p_starts = s.firing_starts["p"]

        def producer_phase(t):
            for st in p_starts:
                if st <= t < st + 2:
                    return t - st
            return None

        c_start = s.firing_starts["c"][0]
        for t in range(c_start):
            assert occ[t] < gate[producer_phase(t)], f"cycle {t} had enough tokens"
        assert occ[c_start] >= gate[producer_phase(c_start)]

    def test_registered_consumer_start_is_earliest(self):
        g = load_graph("dotp-2261")
        s = simulate_schedule(g)
        occ = s.per_edge_occupancy["zw.0->fl.0"]
        start = s.firing_starts["fl"][0]
        # the pipeline register gate wants the full burst of 6 before start
        for t in range(start):
            assert occ[t] < 6
        assert occ[start] >= 6


# ---------------------------------------------------------------------------
# General behavior
# ---------------------------------------------------------------------------

class TestScheduleBehavior:
    def test_deterministic(self):
        g = load_graph("dotp-5555")
        a = simulate_schedule(g)
        b = simulate_schedule(g)
        assert a.firing_starts == b.firing_starts
        assert a.per_edge_occupancy == b.per_edge_occupancy

    def test_multiple_iterations_extend_schedule(self):
        g = load_graph("fig2")
        s = simulate_schedule(g, iterations=3)
        assert s.firing_starts["p"] == [0, 2, 4, 6, 8, 10, 12, 14, 16]
        assert s.firing_starts["c"] == [4, 10, 16]
        assert timing_report(s, g).latency_cycles == 19

    def test_throughput_is_iterations_over_latency(self):
        g = load_graph("fig2")
        for iters in (1, 2, 3):
            s = simulate_schedule(g, iterations=iters)
            tr = timing_report(s, g)
            assert tr.throughput == pytest.approx(iters / tr.latency_cycles)

    def test_firing_count_matches_repetition_vector(self):
        from patflow import compute_repetition_vector

        for name in ("fig2", "alg1-worked", "dotp-1010", "transform-stage"):
            g = load_graph(name)
            reps = compute_repetition_vector(g)
            s = simulate_schedule(g, iterations=2)
            for node, starts in s.firing_starts.items():
                assert len(starts) == 2 * reps[node], (name, node)

    def test_occupancy_never_negative(self):
        for name in ("fig2", "dotp-1010", "transform-stage", "moments"):
            s = simulate_schedule(load_graph(name))
            for trace in s.per_edge_occupancy.values():
                assert all(v >= 0 for v in trace)

    def test_occupancy_trace_matches_replay(self):
        for name in names():
            g = load_graph(name)
            for iterations in (1, 3):
                s = simulate_schedule(g, iterations)
                assert s.per_edge_occupancy == replay_occupancy(g, s), (name, iterations)

    def test_iterations_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_schedule(load_graph("fig2"), iterations=0)


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

class TestFailureModes:
    def test_over_tightened_gates_deadlock(self):
        with pytest.raises(Deadlock, match="no progress"):
            simulate_schedule(load_graph("alg1-worked"), gate_offset=1)

    def test_horizon_exceeded(self):
        with pytest.raises(HorizonExceeded, match="within 3 cycles"):
            simulate_schedule(load_graph("fig2"), horizon=3)

    def test_undersized_capacity_overflows(self):
        m = Machine(load_graph("fig2"), 1, capacities={"p.0->c.0": 1})
        with pytest.raises(FifoOverflow, match="sized for 1"):
            m.run()

    def test_loosened_gates_underflow(self):
        m = Machine(load_graph("dotp-1x20"), 1, gate_offset=-1)
        m.run()
        assert m.underflows() == ["zw.0->fl.0"]

    @pytest.mark.parametrize("kwarg", [{"values": True}, {"stimulus": {}}])
    def test_machine_counts_only(self, kwarg):
        with pytest.raises(TypeError):
            Machine(load_graph("fig2"), 1, **kwarg)

    def test_correct_gates_never_underflow(self):
        from patflow.fixtures import names

        for name in names():
            m = Machine(load_graph(name), 1)
            m.run()
            assert m.underflows() == [], name


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class TestRendering:
    def test_gantt_golden(self):
        g = load_graph("fig2")
        s = simulate_schedule(g)
        assert render_gantt(s, g).splitlines() == [
            "cycle  0123456",
            "p      ######.",
            "c      ....###",
        ]

    def test_gantt_marks_every_start(self):
        g = load_graph("dotp-5555")
        s = simulate_schedule(g)
        lines = {ln.split()[0]: ln.split()[1] for ln in render_gantt(s, g).splitlines()[1:]}
        for node, starts in s.firing_starts.items():
            if node in lines:
                for st in starts:
                    assert lines[node][st] == "#", (node, st)

    def test_schedule_json_round_trips(self):
        g = load_graph("fig2")
        s = simulate_schedule(g)
        js = schedule_to_json(s)
        parsed = json.loads(json.dumps(js))
        assert parsed["graph"] == "fig2"
        assert parsed["firing_starts"] == {"p": [0, 2, 4], "c": [4]}
        assert parsed["last_sink_cycle"] == 6
        assert parsed["fifo_peaks"] == {"p.0->c.0": 2}
