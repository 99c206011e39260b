"""Tests for structural Verilog lowering and emission."""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import re
from collections import Counter
from itertools import accumulate

import pytest

from patflow import (
    build_graph,
    equivalence_check,
    eval_expr,
    estimate_resources,
    lower_edges,
    simulate_schedule,
    size_fifos,
    validate_graph,
)
from patflow.errors import NameCollision
from patflow.fixtures import load_graph, names
from patflow.graphs import NodeKind
from patflow.rtl import (
    Assign,
    Instance,
    Net,
    Port,
    RBin,
    RConcat,
    RLit,
    RMux,
    RRef,
    RSlice,
    RtlBody,
    RtlDesign,
    RtlModule,
    SAssign,
    check_design,
    emit_verilog,
    lower_design,
    render_module,
    write_design,
)

from conftest import DESIGNS_PY, generated_graph, one_node_doc

FAMILIES = ("chain", "fanout", "tuple", "folds", "mismatch")


def expected_module_count(g) -> int:
    """Controller + datapath per compute, FIFO + threshold controller per
    buffered edge, one register stage per pipelined edge, one top."""
    computes = sum(1 for n in g.nodes.values() if n.kind is NodeKind.COMPUTE)
    low = lower_edges(g)
    fifos = sum(1 for el in low.values() if el.kind == "fifo")
    pipes = sum(1 for el in low.values() if el.kind == "pipeline")
    return computes * 2 + fifos * 2 + pipes + 1


# ---------------------------------------------------------------------------
# Inventory and determinism
# ---------------------------------------------------------------------------

class TestInventory:
    def test_fig2_file_set(self):
        files = emit_verilog(load_graph("fig2"))
        assert sorted(files) == [
            "c_ctrl.v",
            "c_datapath.v",
            "fig2_top.v",
            "manifest.json",
            "p_0__c_0_fifo.v",
            "p_0__c_0_fifo_ctrl.v",
            "p_ctrl.v",
            "p_datapath.v",
        ]

    def test_module_count_formula(self):
        for name in names():
            g = load_graph(name)
            files = emit_verilog(g)
            v_files = [f for f in files if f.endswith(".v")]
            assert len(v_files) == expected_module_count(g), name

    def test_emission_is_deterministic(self):
        for name in names():
            assert emit_verilog(load_graph(name)) == emit_verilog(load_graph(name)), name

    def test_no_timestamps_or_environment_leaks(self):
        files = emit_verilog(load_graph("dotp-1010"))
        for fname, text in files.items():
            assert not re.search(r"\b20\d\d-\d\d-\d\d\b", text), fname


# ---------------------------------------------------------------------------
# Edge lowering choices
# ---------------------------------------------------------------------------

class TestEdgeModules:
    def test_matched_compute_edge_is_a_register_stage(self):
        files = emit_verilog(load_graph("dotp-1010"))
        assert "zw_0__fl_0_pipe.v" in files
        assert "zw_0__fl_0_fifo.v" not in files
        assert "zw_0__fl_0_fifo_ctrl.v" not in files

    def test_source_edges_keep_their_fifo(self):
        # rate-matched or not, a source cannot be stalled, so its edge
        # always gets a real FIFO and threshold controller
        files = emit_verilog(load_graph("fold-pipeline"))
        assert "xs_0__zw_0_fifo.v" in files
        assert "xs_0__zw_0_fifo_ctrl.v" in files

    def test_sink_edges_are_plain_wires(self):
        files = emit_verilog(load_graph("fig2"))
        assert not any("out" in f and f.endswith("_fifo.v") for f in files)

    def test_threshold_controller_carries_gate_table(self):
        g = load_graph("dotp-1010")
        files = emit_verilog(g)
        text = files["xs_0__zw_0_fifo_ctrl.v"]
        gate = lower_edges(g)["xs.0->zw.0"].gate
        assert f"localparam integer THRESH_P0 = {gate.entries[0]};" in text
        assert f"localparam integer THRESH_P1 = {gate.entries[1]};" in text
        assert f"localparam integer THRESH_IDLE = {gate.idle};" in text

    def test_source_fifo_allows_same_cycle_read_through(self):
        files = emit_verilog(load_graph("dotp-1010"))
        assert "WRITE_THROUGH = 1" in files["xs_0__zw_0_fifo.v"]

    def test_compute_fed_fifo_reads_registered_only(self):
        files = emit_verilog(load_graph("fig2"))
        assert "WRITE_THROUGH = 0" in files["p_0__c_0_fifo.v"]


# ---------------------------------------------------------------------------
# Datapath structure
# ---------------------------------------------------------------------------

MUL_SEED = "(foldl (lambda (a b) (add a b)) (mul 2 3) (input 0))"
INPUT_SEED = "(foldl (lambda (a b) (add a b)) (input 1) (input 0))"
FOLD_IN_LAMBDA = (
    "(map (lambda (x) (add x (foldl1 (lambda (a b) (add a b)) (input 1)))) (input 0))"
)
CONST_IN_MAP = "(map (lambda (x) (add x (mul 2 3))) (input 0))"
LET_SEED = "(foldl (lambda (a b) (add a b)) (let ((k 3)) (add k k)) (input 0))"
# A computed value used twice: one instance per lane, not one per use.
LET_REUSE = (
    "(let ((y (map (lambda (x) (mul x x)) (input 0))))"
    " (zipwith (lambda (a b) (add a b)) y y))"
)
MAP_OF_ZIP = (
    "(map (lambda (x) (mul x x)) (zipwith (lambda (a b) (add a b)) (input 0) (input 1)))"
)

# Bodies on which the estimate and the RTL once disagreed, failed, or
# instantiated a reused value once per use.
ODD_BODIES = {
    "mul-seed-2-phase": one_node_doc(MUL_SEED, [[2, 2]], [[0, 1]]),
    "mul-seed-1-phase": one_node_doc(MUL_SEED, [[4]], [[1]]),
    "input-seed": one_node_doc(INPUT_SEED, [[4], [1]], [[1]]),
    "fold-in-lambda": one_node_doc(FOLD_IN_LAMBDA, [[3], [4]], [[3]]),
    "const-in-map": one_node_doc(CONST_IN_MAP, [[3]], [[3]]),
    "let-seed-2x2": one_node_doc(LET_SEED, [[2, 2]], [[0, 1]]),
    "let-reuse-1x1": one_node_doc(LET_REUSE, [[1, 1]], [[1, 1]]),
    "map-of-zip-1x1": one_node_doc(MAP_OF_ZIP, [[1, 1], [1, 1]], [[1, 1]]),
}


def wire_op(value) -> str:
    """The primitive an operator wire of a datapath implements."""
    if isinstance(value, RBin):
        return {"+": "add", "-": "sub", "*": "mul"}[value.op]
    assert isinstance(value, RMux) and value.cond.op == "<"
    a, b = value.cond.left, value.cond.right
    if (value.then, value.orelse) == (a, b):
        return "min"
    if (value.then, value.orelse) == (b, a):
        return "max"
    return "compare"


def datapath_module(design, node: str) -> RtlModule:
    """``node``'s datapath module."""
    (module,) = [
        m["module"] for m in design.manifest["modules"]
        if m["role"] == "datapath" and m["subject"] == node
    ]
    return design.modules[module]


def datapath_ops(design, node: str) -> dict[str, int]:
    """Operator wires by primitive in ``node``'s datapath module."""
    return dict(Counter(
        wire_op(a.value) for a in datapath_module(design, node).body.assigns
        if re.search(r"_w\d+$", a.target)
    ))


def eval_rtl(e, env: dict, widths: dict | None = None) -> int:
    """The value of the combinational ``rtl.ir`` expression ``e`` over the
    net values in ``env``; the caller masks it to the target's width.  A
    concatenation needs the ``widths`` of the nets it joins."""
    if isinstance(e, RRef):
        return env[e.name]
    if isinstance(e, RLit):
        return e.value
    if isinstance(e, RSlice):
        return (env[e.base] >> e.lo) & ((1 << (e.hi - e.lo + 1)) - 1)
    if isinstance(e, RMux):
        return eval_rtl(e.then if eval_rtl(e.cond, env, widths) else e.orelse, env, widths)
    if isinstance(e, RConcat):
        value = 0
        for part in e.parts:  # most significant first
            if isinstance(part, RRef):
                w = widths[part.name]
            else:
                w = part.width if isinstance(part, RLit) else part.hi - part.lo + 1
            value = (value << w) | eval_rtl(part, env, widths)
        return value
    a, b = eval_rtl(e.left, env, widths), eval_rtl(e.right, env, widths)
    return {"+": a + b, "-": a - b, "*": a * b, "<": int(a < b), "==": int(a == b),
            "&": a & b, "|": a | b}[e.op]


def settle(module, env: dict) -> dict:
    """Evaluate ``module``'s assigns in order over ``env``, masking each net
    to its width; return ``env``."""
    widths = {p.name: p.width for p in module.body.ports}
    widths.update((n.name, n.width) for n in module.body.nets)
    for a in module.body.assigns:
        env[a.target] = eval_rtl(a.value, env, widths) & ((1 << widths[a.target]) - 1)
    return env


def firing_through_datapath(node, module, vectors: list[tuple[int, ...]]) -> list[list[int]]:
    """Drive one firing of an elementwise or single-phase ``node`` through its
    datapath ``module`` and return its tokens per output port.  In each
    phase an input bus shows that phase's words of the port's vector."""
    width, mask = node.width, (1 << node.width) - 1
    offsets = [list(accumulate(p.phases, initial=0)) for p in node.patterns.inputs]
    out = [[] for _ in node.patterns.outputs]
    for phase in range(node.length):
        env = {"phase": phase, "firing": 1}
        for i, (v, off) in enumerate(zip(vectors, offsets)):
            words = v[off[phase] : off[phase + 1]]
            env[f"in{i}"] = sum(w << (k * width) for k, w in enumerate(words))
        settle(module, env)
        for k, p in enumerate(node.patterns.outputs):
            out[k] += [(env[f"out{k}"] >> (j * width)) & mask for j in range(p.phases[phase])]
    return out


def run_fold_datapath(module, pattern: list[int], tokens: list[int], junk: int = 3) -> int:
    """Clock a one-input fold datapath through one firing of ``pattern`` and
    return its ``out0`` after the last phase.

    In every phase the input bus shows the next unread tokens, padded with
    ``junk`` past the end of the stream, as a FIFO's ``dout`` does, also in
    a phase that reads nothing.  The accumulator starts from ``junk``: a
    firing must not depend on what an earlier one left behind."""
    lanes, width = max(pattern), next(p.width for p in module.body.ports if p.name == "out0")
    stream = tokens + [junk] * lanes
    env, pos = {"acc_q": junk, "firing": 1}, 0
    for phase, n in enumerate(pattern):
        env["phase"] = phase
        env["in0"] = sum(w << (k * width) for k, w in enumerate(stream[pos : pos + lanes]))
        settle(module, env)
        env["acc_q"], pos = env["result"], pos + n
    return env["out0"]


def files_digest(files: dict[str, str]) -> str:
    """sha256 over ``name\\0text\\0`` of every file, in sorted name order."""
    h = hashlib.sha256()
    for fname in sorted(files):
        h.update(fname.encode() + b"\0" + files[fname].encode() + b"\0")
    return h.hexdigest()


# sha256 over every fixture's sized emission (file names and texts, in
# sorted order), recorded before the datapath unroller was shared with the
# estimator; any change to the emitted Verilog shows up here.
SIZED_EMIT_SHA256 = {
    "alg1-worked": "00a206af91c3478691bca7f5cef683d8e7fa3cec3277940d63b8cdce58f23a71",
    "dotp-1010": "649046a5c5d368e1313402ae69380ec7213dd40de3b6c5dc74eb7e33285f339e",
    "dotp-1x20": "b1625d441fd0581e1ff176d7a072acd0994ca6fd3693511c2d6a537a8a07cb61",
    "dotp-20": "75bdc6778845a0c24d647a5face210e2cc909d7be750c01a60ef90036680f9c1",
    "dotp-2261": "a960a5e5d052d150830e503f66cec3cdebf4d0cdaacc5fa3dd0131b47f7defe6",
    "dotp-5555": "99b8827e64f0fbc8e3a92536adeb244f2bd335a63bd530d67a01547a558f7935",
    "fig2": "316f70a5f4234dff39af18d4769aa9b1b1beb9046344975d344529a54cfac486",
    "fold-pipeline": "3586ea4c5348a41e98f339f3c8f6cf596e85fa96c8261cc95470cc0a3a1bfd2b",
    "moments": "3a12517b08e6307c2b9a75fcae8d28a05de35baf536a2b60d2b75e9ef71fa570",
    "transform-stage": "d92f75799bc154f54f05d072c8fe1b610e403315f7eb7e97bee52a69307ff9a1",
}


class TestDatapaths:
    def test_multiplier_instances_match_estimate(self):
        graphs = {name: load_graph(name) for name in names()}
        for label, doc in ODD_BODIES.items():
            graphs[label] = build_graph(doc)
            assert validate_graph(graphs[label]) == [], label
        for label, g in graphs.items():
            files = emit_verilog(g)
            report = estimate_resources(g)
            stars = sum(text.count("*") for text in files.values())
            assert stars == report.dsp_count, label
            design = lower_design(g)
            for node in g.computes:
                ops = report.per_node[node.name]["ops"]
                assert datapath_ops(design, node.name) == ops, (label, node.name)

    def test_constant_fold_seed_is_a_literal(self):
        expected = {
            "mul-seed-2-phase": {"add": 2},
            "mul-seed-1-phase": {"add": 4},
            "const-in-map": {"add": 3},
            "let-seed-2x2": {"add": 2},
        }
        for label, ops in expected.items():
            report = estimate_resources(build_graph(ODD_BODIES[label]))
            assert report.dsp_count == 0, label
            assert report.per_node["c"]["ops"] == ops, label

    @pytest.mark.parametrize("label", list(ODD_BODIES))
    def test_unrolled_bodies_stay_equivalent(self, label):
        assert equivalence_check(build_graph(ODD_BODIES[label]), 3, iterations=2).ok

    @pytest.mark.parametrize("pattern, muls", [([2], 2), ([1, 1], 1), ([2, 2], 2)])
    def test_let_bound_value_is_one_instance_per_lane(self, pattern, muls):
        g = build_graph(one_node_doc(LET_REUSE, [pattern], [pattern]))
        report = estimate_resources(g)
        assert report.dsp_count == muls
        assert report.per_node["c"]["ops"] == {"mul": muls, "add": muls}
        assert sum(text.count("*") for text in emit_verilog(g).values()) == muls

    def test_lambda_bound_value_is_one_instance_per_lane(self):
        report = estimate_resources(build_graph(ODD_BODIES["map-of-zip-1x1"]))
        assert report.per_node["c"]["ops"] == {"add": 1, "mul": 1}

    def test_datapaths_compute_the_body(self):
        graphs = {name: load_graph(name) for name in names()}
        graphs.update((label, build_graph(doc)) for label, doc in ODD_BODIES.items())
        graphs.update((family, generated_graph(family, 10)) for family in FAMILIES)
        rng = random.Random(0)
        checked = Counter()
        for label, g in graphs.items():
            design = lower_design(g)
            for node in g.computes:
                mode = g.prepared.plans[node.name].mode
                if mode == "fold":
                    continue
                module = datapath_module(design, node.name)
                for _ in range(3):
                    vectors = [
                        tuple(rng.randrange(1 << node.width) for _ in range(p.total))
                        for p in node.patterns.inputs
                    ]
                    result = eval_expr(node.body, vectors, node.width)
                    ports = result if len(node.patterns.outputs) > 1 else (result,)
                    expected = [list(v) if isinstance(v, tuple) else [v] for v in ports]
                    got = firing_through_datapath(node, module, vectors)
                    assert got == expected, (label, node.name, vectors)
                checked[mode] += 1
        assert checked["elementwise"] and checked["general"]

    @pytest.mark.parametrize("pattern", [[2, 0, 2], [2, 2, 0], [0, 2, 2]])
    @pytest.mark.parametrize("op", ["add", "sub", "min"])
    @pytest.mark.parametrize("head", ["foldl1", "foldl"])
    def test_fold_holds_through_idle_phases(self, head, op, pattern):
        seed = " 7" if head == "foldl" else ""
        body = f"({head} (lambda (a b) ({op} a b)){seed} (input 0))"
        g = build_graph(one_node_doc(body, [pattern], [[0, 0, 1]]))
        tokens = [9, 7, 8, 6]
        got = run_fold_datapath(lower_design(g).modules["c_datapath"], pattern, tokens)
        assert got == eval_expr(g.nodes["c"].body, [tuple(tokens)], 8)
        assert equivalence_check(g, 3, iterations=2).ok

    def test_sized_emission_is_pinned(self):
        for name in names():
            g = load_graph(name)
            files = emit_verilog(g, size_fifos(simulate_schedule(g, 2), g))
            assert files_digest(files) == SIZED_EMIT_SHA256[name], name

    def test_generated_design_emission_matches_benchmark_digests(self):
        # The benchmark's recorded emit digests of its 100-node oracle
        # designs; many of their modules share a body.
        path = pathlib.Path(DESIGNS_PY).with_name("digests.json")
        recorded = json.loads(path.read_text())["emit"]
        for family in FAMILIES:
            g = generated_graph(family, 100)
            files = emit_verilog(g, size_fifos(simulate_schedule(g, 2), g))
            assert files_digest(files) == recorded[f"{family}-100-s0"], family

    def test_fold_datapath_has_accumulator(self):
        files = emit_verilog(load_graph("dotp-1010"))
        text = files["fl_datapath.v"]
        assert "reg [17:0] acc_q;" in text
        assert "acc_q <=" in text

    def test_single_phase_fold_needs_no_accumulator(self):
        files = emit_verilog(load_graph("dotp-20"))
        assert "acc_q" not in files["fl_datapath.v"]

    def test_controller_counts_phases(self):
        files = emit_verilog(load_graph("fig2"))
        text = files["c_ctrl.v"]
        assert "localparam integer LEN = 3;" in text
        assert "localparam integer IDLE = 3;" in text


# ---------------------------------------------------------------------------
# Top module
# ---------------------------------------------------------------------------

class TestTopModule:
    def test_source_and_sink_port_surface(self):
        files = emit_verilog(load_graph("dotp-1010"))
        text = files["dotp_1010_top.v"]
        for port in (
            "input wire clk",
            "input wire rst",
            "input wire run",
            "input wire xs_firing",
            "input wire [1:0] xs_phase",
            "input wire [179:0] xs_p0_data",
            "input wire ys_firing",
            "output wire [17:0] out_p0_data",
            "output wire out_p0_valid",
        ):
            assert port in text, port

    def test_generator_design_has_no_source_ports(self):
        text = emit_verilog(load_graph("fig2"))["fig2_top.v"]
        header = text.split(");")[0]
        assert "firing" not in header.replace("p_firing", "")  # only internals
        assert "input wire clk" in header
        assert "output wire [7:0] out_p0_data" in header

    def test_manifest_inventory(self):
        g = load_graph("fig2")
        man = json.loads(emit_verilog(g)["manifest.json"])
        assert man["design"] == "fig2"
        assert man["top"] == "fig2_top"
        roles = sorted(m["role"] for m in man["modules"])
        assert roles == ["ctrl", "ctrl", "datapath", "datapath", "fifo",
                         "fifo_ctrl", "top"]
        assert man["edges"]["p.0->c.0"]["kind"] == "fifo"
        assert man["edges"]["c.0->out.0"]["kind"] == "sink"

    def test_design_passes_structural_check(self):
        for name in names():
            d = lower_design(load_graph(name))
            assert check_design(d) == [], name


# ---------------------------------------------------------------------------
# Name handling
# ---------------------------------------------------------------------------

def tiny_doc(src: str, mid: str) -> dict:
    return {
        "meta": {"name": "coll", "iterations": 1},
        "nodes": [
            {"name": src, "kind": "source", "width": 8, "outputs": [[1]]},
            {"name": mid, "kind": "compute", "width": 8,
             "expr": "(map (lambda (x) x) (input 0))",
             "inputs": [[1]], "outputs": [[1]]},
            {"name": "o", "kind": "sink", "width": 8, "inputs": [[1]]},
        ],
        "edges": [{"from": f"{src}.0", "to": f"{mid}.0"},
                  {"from": f"{mid}.0", "to": "o.0"}],
    }


class TestNames:
    def test_hyphens_are_sanitized(self):
        g = build_graph(tiny_doc("in-a", "stage-1"))
        files = emit_verilog(g)
        assert "stage_1_ctrl.v" in files

    def test_sanitization_collisions_are_refused(self):
        g = build_graph(tiny_doc("zw-1", "zw_1"))
        with pytest.raises(NameCollision, match="both need the RTL name"):
            emit_verilog(g)

    def test_reserved_names_are_refused(self):
        g = build_graph(tiny_doc("clk", "m"))
        with pytest.raises(NameCollision, match="'clk'"):
            emit_verilog(g)


# ---------------------------------------------------------------------------
# Structural checker
# ---------------------------------------------------------------------------

class TestCheckDesign:
    def _design(self, module: RtlModule) -> RtlDesign:
        d = RtlDesign(name="d", top=module.name)
        d.add(module)
        return d

    def test_missing_top(self):
        assert check_design(RtlDesign(name="d", top="nope")) == [
            "top module 'nope' is not defined"
        ]

    def test_duplicate_declaration(self):
        m = RtlModule(name="m")
        m.body.ports.append(Port("a", 1, "input"))
        m.body.ports.append(Port("a", 2, "output"))
        assert check_design(self._design(m)) == ["m: duplicate declaration 'a'"]

    def test_undefined_instance_module(self):
        m = RtlModule(name="m")
        m.body.ports.append(Port("clk", 1, "input"))
        m.body.instances.append(Instance("ghost", "u0", (("x", RRef("clk")),)))
        assert "undefined module 'ghost'" in check_design(self._design(m))[0]

    def test_undeclared_reference(self):
        m = RtlModule(name="m")
        m.body.ports.append(Port("y", 4, "output"))
        m.body.assigns.append(Assign("y", RRef("nope")))
        assert check_design(self._design(m)) == [
            "m: reference to undeclared name 'nope'"
        ]

    def test_unconnected_input_flagged(self):
        child = RtlModule(name="child")
        child.body.ports.append(Port("a", 1, "input"))
        parent = RtlModule(name="parent")
        parent.body.instances.append(Instance("child", "u0", ()))
        d = RtlDesign(name="d", top="parent")
        d.add(parent)
        d.add(child)
        assert check_design(d) == ["parent.u0: input 'a' unconnected"]

    def test_width_mismatch_flagged(self):
        child = RtlModule(name="child")
        child.body.ports.append(Port("a", 4, "input"))
        parent = RtlModule(name="parent")
        parent.body.nets.append(Net("w", 2))
        parent.body.instances.append(Instance("child", "u0", (("a", RRef("w")),)))
        d = RtlDesign(name="d", top="parent")
        d.add(parent)
        d.add(child)
        assert check_design(d) == ["parent.u0: port 'a' is 4 bits, connected to 2"]


# ---------------------------------------------------------------------------
# Shared module bodies
# ---------------------------------------------------------------------------

MAP_ADD1 = "(map (lambda (x) (add x 1)) (input 0))"


def sharing_doc() -> dict:
    """Two source-fed FIFOs and one compute-fed FIFO, all 8 bits wide and 2
    deep unsized.  ``s1.0->b1.0`` and ``a.0->b2.0`` have equal patterns and
    differ only in write-through and in their gate tables; ``s0.0->a.0`` and
    ``s1.0->b1.0`` have equal gate tables."""
    def compute(name, inputs, outputs):
        return {"name": name, "kind": "compute", "width": 8, "expr": MAP_ADD1,
                "inputs": [inputs], "outputs": [outputs]}

    return {
        "meta": {"name": "share", "iterations": 1},
        "nodes": [
            {"name": "s0", "kind": "source", "width": 8, "outputs": [[2, 0]]},
            {"name": "s1", "kind": "source", "width": 8, "outputs": [[2, 0]]},
            compute("a", [2, 0], [2, 0]),
            compute("b1", [1, 1], [1, 1]),
            compute("b2", [1, 1], [1, 1]),
            {"name": "o1", "kind": "sink", "width": 8, "inputs": [[1, 1]]},
            {"name": "o2", "kind": "sink", "width": 8, "inputs": [[1, 1]]},
        ],
        "edges": [
            {"from": "s0.0", "to": "a.0"},
            {"from": "a.0", "to": "b2.0"},
            {"from": "s1.0", "to": "b1.0"},
            {"from": "b1.0", "to": "o1.0"},
            {"from": "b2.0", "to": "o2.0"},
        ],
    }


def sharing_graphs() -> dict:
    """Every fixture and the benchmark families at 100 nodes, sized."""
    graphs = {name: load_graph(name) for name in names()}
    graphs.update((family, generated_graph(family, 100)) for family in FAMILIES)
    return {label: (g, size_fifos(simulate_schedule(g, 2), g)) for label, g in graphs.items()}


def unshared_copy(m: RtlModule) -> RtlModule:
    copy = RtlModule(m.name, m.comment)
    for field in RtlBody.__slots__:
        setattr(copy.body, field, list(getattr(m.body, field)))
    return copy


class TestSharedBodies:
    def test_equal_signatures_share_one_body(self):
        g = build_graph(sharing_doc())
        assert validate_graph(g) == []
        mods = lower_design(g).modules
        assert mods["a_ctrl"].body is mods["b1_ctrl"].body is mods["b2_ctrl"].body
        assert mods["b1_datapath"].body is mods["b2_datapath"].body
        assert mods["s0_0__a_0_fifo_ctrl"].body is mods["s1_0__b1_0_fifo_ctrl"].body
        assert mods["a_datapath"].body is not mods["b1_datapath"].body

    def test_write_through_and_gate_table_split_bodies(self):
        g = build_graph(sharing_doc())
        lows = lower_edges(g)
        assert lows["s1.0->b1.0"].gate != lows["a.0->b2.0"].gate
        mods = lower_design(g).modules
        assert mods["s1_0__b1_0_fifo"].body is not mods["a_0__b2_0_fifo"].body
        assert mods["s1_0__b1_0_fifo_ctrl"].body is not mods["a_0__b2_0_fifo_ctrl"].body

    def test_capacity_splits_bodies(self):
        g = build_graph(sharing_doc())
        mods = lower_design(g, {"s0.0->a.0": 2, "s1.0->b1.0": 3}).modules
        assert mods["s0_0__a_0_fifo_ctrl"].body is not mods["s1_0__b1_0_fifo_ctrl"].body
        files = emit_verilog(g, {"s0.0->a.0": 2, "s1.0->b1.0": 3})
        assert "DEPTH = 3;" in files["s1_0__b1_0_fifo.v"]

    def test_shared_bodies_are_frozen(self):
        mods = lower_design(build_graph(sharing_doc())).modules
        with pytest.raises(AttributeError):
            mods["a_ctrl"].body.assigns.append(Assign("phase", RRef("x")))
        with pytest.raises(AttributeError):
            mods["b1_ctrl"].body.nets.append(Net("extra", 1))
        assert "extra" not in render_module(mods["b2_ctrl"])

    def test_emitted_text_equals_unshared_render(self):
        graphs = sharing_graphs()
        for family in FAMILIES:
            g = generated_graph(family, 24)
            graphs[f"{family}-24"] = (g, size_fifos(simulate_schedule(g, 2), g))
        depths_sharing_parts = 0
        for label, (g, caps) in graphs.items():
            design = lower_design(g, caps)
            by_process = {}
            for m in design.modules.values():
                if m.name.endswith("_fifo"):
                    depth = [p.value for p in m.body.params if p.name == "DEPTH"]
                    by_process.setdefault(id(m.body.always[0]), set()).update(depth)
            depths_sharing_parts += sum(len(d) > 1 for d in by_process.values())
            files = emit_verilog(g, caps)
            for name, m in design.modules.items():
                assert files[f"{name}.v"] == render_module(unshared_copy(m)), (label, name)
        # FIFOs of different depths hold one write process in some designs.
        assert depths_sharing_parts > 0

    def test_manifest_matches_json_dumps(self):
        kinds = set()
        graphs = sharing_graphs()
        graphs["empty"] = (build_graph({"meta": {"name": "empty"}, "nodes": [], "edges": []}), {})
        for label, (g, caps) in graphs.items():
            manifest = lower_design(g, caps).manifest
            kinds |= {e["kind"] for e in manifest["edges"].values()}
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            assert emit_verilog(g, caps)["manifest.json"] == text, label
        assert kinds == {"fifo", "pipeline", "sink"}

    def test_broken_shared_body_is_reported_for_every_module(self):
        design = lower_design(generated_graph("chain", 24))
        assert check_design(design) == []
        ctrls = [m for m in design.modules.values() if m.name.endswith("_ctrl")]
        body = Counter(m.body for m in ctrls).most_common(1)[0][0]
        sharing = [m.name for m in design.modules.values() if m.body is body]
        assert len(sharing) >= 2
        body.assigns += (Assign("phase", RRef("ghost")),)
        assert check_design(design) == [
            f"{name}: reference to undeclared name 'ghost'" for name in sharing
        ]


def fifo_shape(m: RtlModule) -> tuple:
    """A FIFO module's word buses, memory width, write-through and
    occupancy width: everything but its depth."""
    params = {p.name: p.value for p in m.body.params}
    ports = {p.name: p.width for p in m.body.ports}
    mem = next(r for r in m.body.regs if r.name == "mem")
    return (ports["din"], ports["dout"], mem.width, params["WRITE_THROUGH"],
            ports["occupancy"])


class TestSharedParts:
    def test_fifos_of_different_depth_share_their_process(self):
        g = generated_graph("fanout", 24)
        design = lower_design(g, size_fifos(simulate_schedule(g, 2), g))
        assert check_design(design) == []
        fifos = [m for m in design.modules.values() if m.name.endswith("_fifo")]
        depth = {m.name: m.body.params[0].value for m in fifos}
        a, b = next((a, b) for a in fifos for b in fifos
                    if depth[a.name] < depth[b.name] and fifo_shape(a) == fifo_shape(b))
        assert a.body is not b.body
        ff = a.body.always[0]
        assert b.body.always[0] is ff
        # So do their occupancy and dout assigns, after push and pop.
        assert all(x is y for x, y in zip(a.body.assigns[2:], b.body.assigns[2:], strict=True))
        # A fault planted in the shared process is reported under every
        # module of every body that holds it.
        holders = [m.name for m in design.modules.values()
                   if any(x is ff for x in m.body.always)]
        assert a.name in holders and b.name in holders
        ff.body += (SAssign(RRef("ghost_q"), RLit(0, 1)),)
        assert check_design(design) == [
            f"{name}: reference to undeclared name 'ghost_q'" for name in holders
        ]


class TestFusedCheck:
    """``emit_verilog`` checks the names of the same walk that renders each
    body, so a lowering bug still stops emission."""

    def test_undeclared_net_stops_emission(self, monkeypatch):
        import patflow.rtl.lower as rtl_lower

        build_pipe = rtl_lower._pipe_body

        def broken_pipe(body, *args):
            build_pipe(body, *args)
            body.assigns.append(Assign("dout", RRef("ghost_q")))

        monkeypatch.setattr(rtl_lower, "_pipe_body", broken_pipe)
        g = load_graph("dotp-1x20")
        with pytest.raises(RuntimeError, match=r"^internal error: .*'ghost_q'") as info:
            emit_verilog(g)
        problem = "zw_0__fl_0_pipe: reference to undeclared name 'ghost_q'"
        assert str(info.value).endswith(problem)
        assert check_design(lower_design(g)) == [problem]


class TestNoStateBetweenCalls:
    def test_emission_repeats_across_designs(self):
        a = load_graph("dotp-1x20")
        first = emit_verilog(a)
        emit_verilog(generated_graph("mismatch", 60, 3))
        assert emit_verilog(a) == first
        assert emit_verilog(load_graph("dotp-1x20")) == first

    def test_leaves_are_shared_within_a_design_only(self):
        a, b = (lower_design(load_graph("dotp-1x20")) for _ in range(2))
        a_insts = a.modules[a.top].body.instances
        b_insts = b.modules[b.top].body.instances
        clocks = {id(dict(inst.conns)["clk"]) for inst in a_insts if inst.conns[0][0] == "clk"}
        assert len(clocks) == 1
        for ia, ib in zip(a_insts, b_insts, strict=True):
            for (_, ea), (_, eb) in zip(ia.conns, ib.conns, strict=True):
                assert ea == eb and ea is not eb
        # So are declarations, statements and processes.
        fields = ("ports", "params", "nets", "regs", "assigns", "always")
        fifo = next(name for name in a.modules if name.endswith("_fifo"))
        assert all(getattr(a.modules[fifo].body, f) for f in fields)
        for name, ma in a.modules.items():
            for f in fields:
                for pa, pb in zip(getattr(ma.body, f), getattr(b.modules[name].body, f),
                                  strict=True):
                    assert pa == pb and pa is not pb, (name, f)


# ---------------------------------------------------------------------------
# Writing to disk
# ---------------------------------------------------------------------------

class TestWriteDesign:
    def test_files_land_with_unix_endings(self, tmp_path):
        files = emit_verilog(load_graph("fig2"))
        write_design(files, tmp_path)
        on_disk = sorted(p.name for p in tmp_path.iterdir())
        assert on_disk == sorted(files)
        for p in tmp_path.iterdir():
            assert b"\r" not in p.read_bytes(), p.name

    def test_manifest_on_disk_parses(self, tmp_path):
        write_design(emit_verilog(load_graph("fig2")), tmp_path)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["design"] == "fig2"
