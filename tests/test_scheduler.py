"""Tests for the cycle-accurate schedule simulator."""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from patflow import (
    NodeKind,
    Schedule,
    build_graph,
    equivalence_check,
    render_gantt,
    schedule_to_json,
    simulate_schedule,
    size_fifos,
    timing_report,
)
from patflow.errors import Deadlock, FifoOverflow, HorizonExceeded
from patflow.fixtures import load_graph, names
from patflow.schedule import Machine
from patflow.valuesim import random_stimulus, simulate_clocked

from conftest import generated_graph
from stepping import step_schedule


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
            for iterations in (1, 3, 50, 200):
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


# ---------------------------------------------------------------------------
# Long runs: each node's periodic steady state is replayed, not stepped
# ---------------------------------------------------------------------------

# A source supplying 8 tokens in one cycle of four to a map taking 2 per
# cycle: its FIFO peaks at 8 in the cycle of the burst, before the map takes
# its share.
BURST_DOC = {
    "meta": {"name": "burst", "iterations": 1},
    "nodes": [
        {"name": "s", "kind": "source", "width": 8, "outputs": [[8, 0, 0, 0]]},
        {"name": "c", "kind": "compute", "width": 8, "inputs": [[2]], "outputs": [[2]],
         "expr": "(map (lambda (x) (add x 1)) (input 0))"},
        {"name": "o", "kind": "sink", "width": 8, "inputs": [[2]]},
    ],
    "edges": [{"from": "s.0", "to": "c.0"}, {"from": "c.0", "to": "o.0"}],
}


@functools.lru_cache(maxsize=None)
def long_run_graph(name: str):
    """A fixture, or ``<family>-<size>``: that generated design at seed 0."""
    if name in names():
        return load_graph(name)
    family, size = name.rsplit("-", 1)
    return generated_graph(family, int(size))


def schedule_digest(g, s) -> str:
    """First 16 hex digits of the sha256 of everything a schedule reports."""
    blob = json.dumps(
        [s.firing_starts, s.per_edge_occupancy, s.horizon, s.last_sink_cycle,
         size_fifos(s, g), schedule_to_json(s)],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def oracle_schedule(g, iterations: int) -> Schedule:
    """The plain stepping scheduler's run, as a :class:`Schedule`."""
    starts, trace, cycles, last_sink, _, peaks = step_schedule(g, iterations)
    s = Schedule(g.name, iterations, starts, cycles, None, last_sink, peaks)
    s.per_edge_occupancy = trace
    return s


def replayed(m) -> list[tuple[int, int, int]]:
    """The repeat markers of a run's FIFOs, one per FIFO whose consumer
    replayed a window."""
    return [repeat for *_, repeat in m.points if repeat]


def machine_outcome(g, iterations, **kw):
    """Everything a run records, or the error it raised."""
    m = Machine(g, iterations, **kw)
    try:
        m.run()
    except (Deadlock, FifoOverflow, HorizonExceeded) as exc:
        return m, (type(exc).__name__, str(exc))
    return m, (m.starts, m.occupancy.expand(), m.cycles, m.last_sink_cycle, m.underflows(), m.fifo_peaks())


LONG_RUN_ITERATIONS = (1, 2, 7, 100, 1000)

# Recorded with a machine that stepped every cycle; the plain stepping
# scheduler reproduces the first three.
LONG_RUN_SHA256 = {
    "alg1-worked": (
        "d1b5bfc31ab5a40c", "b20b12750b5c7355", "9566411f88055eb2",
        "c77c7bd6e94ddb85", "34935431207de3eb",
    ),
    "dotp-1010": (
        "95a608aaacf7b94b", "ba6325f133e6292b", "3da2bd9a74bdc732",
        "36e993f20c11c026", "3c974caeda3854e2",
    ),
    "dotp-1x20": (
        "adb8e5fb09070551", "be49b3011c358818", "16e0ac1bbf262148",
        "f10511e2c8b046fe", "6e1edb8f37aee315",
    ),
    "dotp-20": (
        "6ba826ae74c46b01", "6fb9482d141e3028", "edbaf794894ccfe8",
        "40b2de8f949baf6f", "73f7d2238b9a77fe",
    ),
    "dotp-2261": (
        "9221600a95d6ab71", "1450877250335605", "3c794be462f9f534",
        "b72ad8544789f4f0", "31c34f457bf090b7",
    ),
    "dotp-5555": (
        "7fc14c60abfaec8a", "d2e19b521238576f", "a3dd2b7e60e2e647",
        "299ad6354d7ed65c", "5009e5104067d547",
    ),
    "fig2": (
        "7b23a6b4b041b501", "5cbf543b43f96e2c", "0493677ab4cd4d86",
        "50b73b40284ece96", "eb558ab2e47dc6e5",
    ),
    "fold-pipeline": (
        "d8997f2c659b6bef", "1179d2a68e463a3d", "312c690d69ba9e66",
        "c5364cf02425261b", "063300c3e2d825b8",
    ),
    "moments": (
        "31e7382cdb85583c", "704bd203b57577aa", "593e08bf78aaeeee",
        "3f1dc34d444b9f5e", "d058d1a3fe90ae02",
    ),
    "transform-stage": (
        "ae67f722b014e701", "c83602626118477d", "dcaa959216436c3c",
        "67cb9717205f84f4", "7fa0244a04864619",
    ),
    "chain-10": (
        "3eda2ebcc94fa8ee", "701d080b08fff49a", "897fabb7006abbeb",
        "b539734bb4749f7f", "65ea6aebee9dc77c",
    ),
    "chain-25": (
        "b117ebfa3b201315", "f1d150e842501af3", "44bc3805170f8fd6",
        "d30f5c2835337603", "811b8b3700f59cde",
    ),
    "fanout-10": (
        "74666a5abb62af6a", "410ccbe492a87310", "b1da76f97967859a",
        "da5250da936bda70", "47badc922aa8d660",
    ),
    "fanout-25": (
        "f4389cabb350b14c", "82e81a6b072a4594", "cdab43a522473cdf",
        "07ca8a2a3b1a81cb", "a7534563262528db",
    ),
    "tuple-10": (
        "6b318ce2fbdfea15", "b02acdabc31b572f", "28b0fc173fb0433b",
        "b8c5427141d116a1", "3303801f68d8d336",
    ),
    "tuple-25": (
        "cc15f4a0f7d5b326", "ebc188393d6ed673", "26673d434d324479",
        "788baf9600c3d776", "85881d1266226f3a",
    ),
    "folds-10": (
        "cab2b822d90627cf", "d28543b7bbdd49a5", "1cceafb75b14dc88",
        "51d863d30e8bfced", "46da10d59b996559",
    ),
    "folds-25": (
        "f901e5f992fb31b0", "56d49cd6774775e4", "7f3742b47a92dc0a",
        "414cc7e89deb3254", "6eea454ff1424552",
    ),
    "mismatch-10": (
        "a286aed837918ffa", "1a50417fcf3e79a8", "7d7c6a3c8f30bea8",
        "2cf63b14dd1d2913", "384d54b28cff2e6c",
    ),
    "mismatch-25": (
        "5df91a7725380746", "546d5831f0b95b6f", "d9ac93e0c9103bd7",
        "cc11baeb9f349006", "23f05a38497ccb7c",
    ),
}


class TestLongRuns:
    @pytest.mark.parametrize("name", sorted(LONG_RUN_SHA256))
    def test_pinned_schedules(self, name):
        g = long_run_graph(name)
        for iterations, pinned in zip(LONG_RUN_ITERATIONS, LONG_RUN_SHA256[name]):
            s = simulate_schedule(g, iterations)
            assert schedule_digest(g, s) == pinned, (name, iterations)
            assert s.fifo_peaks == {
                eid: max(trace) for eid, trace in s.per_edge_occupancy.items()
            }, (name, iterations)

    @pytest.mark.parametrize("name", sorted(LONG_RUN_SHA256))
    def test_plain_stepping_reproduces_pins(self, name):
        g = long_run_graph(name)
        for iterations, pinned in zip(LONG_RUN_ITERATIONS[:3], LONG_RUN_SHA256[name]):
            assert schedule_digest(g, oracle_schedule(g, iterations)) == pinned, iterations

    @pytest.mark.parametrize("name", ["fig2", "dotp-1x20", "chain-25", "mismatch-25"])
    def test_long_runs_skip_most_cycles(self, name):
        # A node steps through its transient, one period and its drain, so
        # ten times the iterations cost no more steps.
        g = long_run_graph(name)
        m = Machine(g, 1000).run()
        assert m.steps < 0.1 * m.cycles
        assert m.steps == Machine(g, 100).run().steps

    def test_short_runs_are_not_probed(self):
        m = Machine(load_graph("fig2"), 1).run()
        assert not replayed(m)

    def test_design_that_never_repeats_is_stepped(self):
        # The source outpaces its consumer, so the FIFO grows without bound
        # and no state comes back.
        g = build_graph({
            "meta": {"name": "unbounded", "iterations": 1},
            "nodes": [
                {"name": "s", "kind": "source", "width": 8, "outputs": [[1]]},
                {"name": "c", "kind": "compute", "width": 8, "inputs": [[1, 0]],
                 "outputs": [[1, 0]], "expr": "(map (lambda (x) (add x 1)) (input 0))"},
                {"name": "o", "kind": "sink", "width": 8, "inputs": [[1, 0]]},
            ],
            "edges": [{"from": "s.0", "to": "c.0"}, {"from": "c.0", "to": "o.0"}],
        })
        m = Machine(g, 500).run()
        assert not replayed(m)
        assert m.fifo_peaks() == {"s.0->c.0": 250}
        s = simulate_schedule(g, 500)
        assert s.per_edge_occupancy == replay_occupancy(g, s)

    def test_horizon_inside_skipped_span(self):
        g = load_graph("fig2")                    # 1201 cycles at 200 iterations
        for horizon in (100, 600, 1200):
            m = Machine(g, 200, horizon=horizon)
            with pytest.raises(HorizonExceeded, match=f"^no completion within {horizon} cycles$"):
                m.run()
            # The consumer replays up to the budget's last period.
            [(t1, t2, k)] = replayed(m)
            assert t2 < horizon <= t2 + (k + 1) * (t2 - t1)
        assert step_schedule(g, 200, horizon=600) == (
            "HorizonExceeded", "no completion within 600 cycles")

    @pytest.mark.parametrize(
        "name", ["dotp-2261", "transform-stage", "mismatch-10", "folds-10", "burst"]
    )
    def test_capacity_one_below_peak_overflows(self, name):
        g = build_graph(BURST_DOC) if name == "burst" else long_run_graph(name)
        peaks = simulate_schedule(g, 200).fifo_peaks
        m = Machine(g, 200, capacities=peaks).run()
        assert replayed(m)
        stim = random_stimulus(g, 200, seed=0)
        simulate_clocked(g, stim, capacities=peaks)
        # Every FIFO, source-fed ones included, is checked against the
        # occupancy its consumer samples, which is the traced peak.
        assert peaks
        for eid in peaks:
            peak = peaks[eid]
            with pytest.raises(FifoOverflow, match=f"^edge '{eid}' holds {peak} tokens, "
                                                   f"sized for {peak - 1}$"):
                simulate_clocked(g, stim, capacities={**peaks, eid: peak - 1})

    def test_loosened_gates_underflow_on_long_run(self):
        g = load_graph("dotp-1x20")
        m, outcome = machine_outcome(g, 100, gate_offset=-1)
        assert replayed(m)
        assert m.underflows() == ["zw.0->fl.0"]
        assert outcome == step_schedule(g, 100, gate_offset=-1)

    def test_folds_with_several_components(self):
        g = long_run_graph("folds-25")
        parent = {n: n for n in g.nodes}

        def root(n):
            while parent[n] != n:
                n = parent[n]
            return n

        for e in g.edges:
            parent[root(e.producer)] = root(e.consumer)
        assert len({root(n) for n in g.nodes}) > 1
        # Every component settles into its own period and is replayed.
        m = Machine(g, 1000).run()
        consumer = {e.id: e.consumer for e in g.edges}
        replaying = {root(consumer[eid]) for eid, (*_, r) in zip(m.tables.edge_ids, m.points) if r}
        assert replaying == {root(n) for n in g.nodes if g.nodes[n].kind is NodeKind.COMPUTE}
        s = simulate_schedule(g, 1000)
        assert schedule_digest(g, s) == LONG_RUN_SHA256["folds-25"][-1]

    @pytest.mark.parametrize("name", sorted(names()) + [
        "chain-10", "fanout-10", "tuple-10", "folds-10", "mismatch-10"])
    def test_skip_matches_stepping(self, name):
        g = long_run_graph(name)
        s = simulate_schedule(g, 60)
        cases = [dict(gate_offset=off) for off in (-3, -1, 0, 1)]
        cases += [dict(capacities={**s.fifo_peaks, eid: p - 1})
                  for eid, p in s.fifo_peaks.items() if p]
        cases += [dict(horizon=h) for h in (s.horizon // 2, s.horizon - 1, s.horizon)]
        for kw in cases:
            assert machine_outcome(g, 60, **kw)[1] == step_schedule(g, 60, **kw), kw


# ---------------------------------------------------------------------------
# Deep runs: the transient is most of the horizon
# ---------------------------------------------------------------------------

DEEP_RUN_CASES = [(it, off) for it in (1, 2, 10) for off in (-1, 0, 1)]


def error_digest(exc) -> str:
    """The error's type and the first 16 hex digits of its message's sha256."""
    return f"{type(exc).__name__}:{hashlib.sha256(str(exc).encode()).hexdigest()[:16]}"


def run_digest(g, iterations, **kw) -> str:
    """``schedule_digest`` of a run, or ``error_digest`` of what it raised."""
    try:
        return schedule_digest(g, simulate_schedule(g, iterations, **kw))
    except (Deadlock, FifoOverflow, HorizonExceeded) as exc:
        return error_digest(exc)


def machine_error(g, iterations, **kw) -> str:
    try:
        Machine(g, iterations, **kw).run()
    except (Deadlock, FifoOverflow, HorizonExceeded) as exc:
        return error_digest(exc)
    return "ok"


# Recorded with the machine that visited every node in every cycle, per
# design: one digest per DEEP_RUN_CASES entry.
DEEP_RUN_SHA256 = {
    "chain-100": (
        "55bb6db348c4cf03", "84133699e0a5edaa", "Deadlock:7b07b50d2a88461c",
        "1b692a1363e84368", "8468a3b7efaae103", "Deadlock:2c6f5e5c7348ead5",
        "f4f14a30e015da2b", "d8967fdabb16ce7e", "Deadlock:390ce41ee68dd750",
    ),
    "chain-400": (
        "e0347304371cec61", "a0f985fc37f070b8", "Deadlock:9f4785e9673f7466",
        "e655095efcdb61d8", "67ab98ad6922ca68", "Deadlock:03555d2570264687",
        "ad926afb467acc7a", "a146f51898052a79", "Deadlock:6a71297c85431625",
    ),
    "fanout-100": (
        "ff510b8d32793517", "9cc726e2221d1a48", "Deadlock:b4f2ce2ce4ac58bc",
        "4a88bfdd3817e63c", "952da347798d8253", "Deadlock:0b594c6f24c382fc",
        "ee407539957b9fac", "31df1dbd56d91b90", "Deadlock:d656635ecb37d82d",
    ),
    "fanout-400": (
        "55af24cb099a6320", "0d5389b25b806676", "Deadlock:48573dff3e33c10b",
        "6b3c8d57abae9d5a", "aa053286248479ab", "Deadlock:dd6d0592d23926c2",
        "4a67ba94b5e27ac8", "47acd3696644dd5b", "Deadlock:d185da3e10495582",
    ),
    "mismatch-100": (
        "d570ddf846862777", "be39b09299c43d94", "Deadlock:d0f3deef988ee074",
        "aac60791fd511d9c", "5eca60f9be5d802d", "Deadlock:ec98e59821bd7ca2",
        "294eb74f574c2d39", "fa138b9c3b8c33ea", "Deadlock:593425958a0a99c3",
    ),
    "mismatch-400": (
        "46705e8d1a390095", "e3956411c9066560", "Deadlock:ae4c720ed94313ed",
        "0017fb420e8ee676", "4d8758844524deaa", "Deadlock:29eb1b3b76c53a37",
        "e1e84840d9ffb91b", "92da9ac81130c3cf", "Deadlock:8764fc751d1fc9d6",
    ),
}

# Per design: the horizon one cycle short at 2 and at 10 iterations, then
# every FIFO sized one below its peak at once (2 iterations), and for the
# 100-node designs a digest of the errors with each FIFO alone one below.
DEEP_ERROR_SHA256 = {
    "chain-100": (
        "HorizonExceeded:27c3bb510f46f350", "HorizonExceeded:f659843406d07f02",
        "FifoOverflow:e77b3dceaf352298", "c98904ffa674f666",
    ),
    "chain-400": (
        "HorizonExceeded:bbd18d2b589dbb9e", "HorizonExceeded:d3247b52068f2405",
        "FifoOverflow:e77b3dceaf352298",
    ),
    "fanout-100": (
        "HorizonExceeded:85633815522149e3", "HorizonExceeded:5f7c4b134b001492",
        "FifoOverflow:0e01d3d75b5bac9a", "89f661443a68580d",
    ),
    "fanout-400": (
        "HorizonExceeded:97eb443db9302a7a", "HorizonExceeded:a9471d0ec1c64321",
        "FifoOverflow:ad267295a6caff15",
    ),
    "mismatch-100": (
        "HorizonExceeded:369bfe65881f0eb1", "HorizonExceeded:636ca9415043ac78",
        "FifoOverflow:100295ccb59b6953", "48062ab042ef8bff",
    ),
    "mismatch-400": (
        "HorizonExceeded:1bd085e663b1cd17", "HorizonExceeded:bc5c63b9ba106dfb",
        "FifoOverflow:ad267295a6caff15",
    ),
}


class TestDeepRuns:
    @pytest.mark.parametrize("name", sorted(DEEP_RUN_SHA256))
    def test_pinned_runs(self, name):
        g = long_run_graph(name)
        got = [run_digest(g, it, gate_offset=off) for it, off in DEEP_RUN_CASES]
        assert got == list(DEEP_RUN_SHA256[name])

    @pytest.mark.parametrize("name", sorted(DEEP_ERROR_SHA256))
    def test_pinned_errors(self, name):
        g = long_run_graph(name)
        got = []
        for it in (2, 10):
            got.append(machine_error(g, it, horizon=simulate_schedule(g, it).horizon - 1))
        peaks = {eid: p for eid, p in simulate_schedule(g, 2).fifo_peaks.items() if p}
        got.append(machine_error(g, 2, capacities={eid: p - 1 for eid, p in peaks.items()}))
        if name.endswith("-100"):
            each = [machine_error(g, 2, capacities={eid: p - 1}) for eid, p in peaks.items()]
            assert all(e.startswith("FifoOverflow:") for e in each)
            got.append(hashlib.sha256(json.dumps(each).encode()).hexdigest()[:16])
        assert got == list(DEEP_ERROR_SHA256[name])


# ---------------------------------------------------------------------------
# Event-driven stepping, node by node
# ---------------------------------------------------------------------------

# A one-phase source trickling one token per cycle into a map that takes
# three: only the source's supply, not a change of its phase, tells the
# waiting map to look again.
TRICKLE_DOC = {
    "meta": {"name": "trickle", "iterations": 1},
    "nodes": [
        {"name": "s", "kind": "source", "width": 8, "outputs": [[1]]},
        {"name": "c", "kind": "compute", "width": 8, "inputs": [[3]], "outputs": [[3]],
         "expr": "(map (lambda (x) (add x 1)) (input 0))"},
        {"name": "o", "kind": "sink", "width": 8, "inputs": [[3]]},
    ],
    "edges": [{"from": "s.0", "to": "c.0"}, {"from": "c.0", "to": "o.0"}],
}


class TestEventDriven:
    def test_source_supply_wakes_consumer(self):
        s = simulate_schedule(build_graph(TRICKLE_DOC), 2)
        assert s.firing_starts == {"s": [0, 1, 2, 3, 4, 5], "c": [2, 5]}
        assert s.per_edge_occupancy == {"s.0->c.0": [1, 2, 3, 1, 2, 3]}

    @pytest.mark.parametrize("name", ["chain-400", "mismatch-400"])
    def test_steps_track_busy_nodes(self, name):
        # A step either advances a node's firing (one of its busy cycles) or
        # re-checks an idle one: in cycle 0, after each of its firings, and
        # after each busy cycle and at each start of a producer it reads.
        g = long_run_graph(name)
        m = Machine(g, 2).run()
        busy = {n: len(s) * g.nodes[n].length for n, s in m.starts.items()}
        rechecks = len(busy) + sum(len(s) for s in m.starts.values()) + sum(
            busy[e.producer] + len(m.starts[e.producer]) for e in g.edges if e.consumer in busy)
        assert m.steps <= sum(busy.values()) + rechecks
        # Visiting every node in every cycle would be far above that bound.
        assert m.cycles * len(busy) > 10 * (sum(busy.values()) + rechecks)

    @pytest.mark.parametrize("family", ["chain", "mismatch"])
    def test_steps_grow_linearly_in_node_count(self, family):
        # Each node settles on its own, so four times the nodes cost about
        # four times the steps at any iteration count.
        small = Machine(long_run_graph(f"{family}-100"), 1000).run()
        large = Machine(long_run_graph(f"{family}-400"), 1000).run()
        assert large.steps <= 4.6 * small.steps

    def test_step_tables_built_once_per_offset(self):
        g = load_graph("dotp-1x20")
        assert not g.prepared._steps  # building and validating build none
        a, b = Machine(g, 1), Machine(g, 3)
        assert a.tables is b.tables
        equivalence_check(g, 3, iterations=2, gate_offset=-1)
        assert sorted(g.prepared._steps) == [-1, 0]

    def test_occupancy_expanded_on_first_read(self):
        g = load_graph("dotp-1010")
        s = simulate_schedule(g, 100)
        assert "per_edge_occupancy" not in vars(s)
        occ = s.per_edge_occupancy
        assert type(occ) is dict and all(type(v) is list for v in occ.values())
        assert s.per_edge_occupancy is occ
        assert json.loads(json.dumps(occ)) == occ == replay_occupancy(g, s)
        assert all(len(v) == s.horizon for v in occ.values())

    def test_reader_matches_expansion_across_a_skip(self):
        g = long_run_graph("mismatch-25")
        m = Machine(g, 100).run()
        assert replayed(m)
        for eid, trace in m.occupancy.expand().items():
            at = m.occupancy.reader(eid)
            assert [at(t) for t in range(m.cycles)] == trace, eid
