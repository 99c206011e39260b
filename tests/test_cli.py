"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from patflow import __version__
from patflow.cli import main
from patflow.fixtures import load

FIX = "src/patflow/fixtures"


def write_doc(tmp_path, doc, name="graph.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class TestCheck:
    def test_valid_graph(self, capsys):
        assert main(["check", f"{FIX}/fig2.json"]) == 0
        assert "ok: 'fig2' with 3 nodes and 2 edges" in capsys.readouterr().out

    def test_diagnostics_exit_one(self, tmp_path, capsys):
        doc = load("fig2")
        doc["nodes"][1]["expr"] = "(add (foldl1 (lambda (a b) (add a b)) (input 0)) 1)"
        assert main(["check", write_doc(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "FoldNotAtRoot" in err

    def test_bad_pattern_exit_one(self, tmp_path, capsys):
        doc = load("fig2")
        doc["nodes"][0]["outputs"] = [[1, 2]]
        assert main(["check", write_doc(tmp_path, doc)]) == 1
        assert "mixes non-zero values" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["check", str(p)]) == 2

    def test_bad_expression_exit_two(self, tmp_path, capsys):
        doc = load("fig2")
        doc["nodes"][1]["expr"] = "(foldl1 (lambda (a b) (add a b)) (input 0)"
        assert main(["check", write_doc(tmp_path, doc)]) == 2
        assert "missing closing parenthesis" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "no/such/file.json"]) == 2


# ---------------------------------------------------------------------------
# fc
# ---------------------------------------------------------------------------

class TestFc:
    def test_threshold_lines(self, capsys):
        assert main(["fc", f"{FIX}/alg1-worked.json"]) == 0
        out = capsys.readouterr().out
        assert "src.0->acc.0 [2,2,3] idle=4" in out

    def test_edge_filter(self, capsys):
        assert main(["fc", f"{FIX}/fig2.json", "--edge", "p.0->c.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["p.0->c.0 [2,2] idle=3"]

    def test_unknown_edge_exit_one(self, capsys):
        assert main(["fc", f"{FIX}/fig2.json", "--edge", "nope"]) == 1
        assert "no edge 'nope'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

class TestSchedule:
    def test_text_report(self, capsys):
        assert main(["schedule", f"{FIX}/fig2.json"]) == 0
        out = capsys.readouterr().out
        for needle in ("latency:    7 cycles", "starts p: [0, 2, 4]",
                       "starts c: [4]", "peak p.0->c.0: 2"):
            assert needle in out, needle

    def test_gantt_flag(self, capsys):
        assert main(["schedule", f"{FIX}/fig2.json", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "cycle  0123456" in out
        assert "p      ######." in out

    def test_json_flag(self, capsys):
        assert main(["schedule", f"{FIX}/fig2.json", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["firing_starts"] == {"c": [4], "p": [0, 2, 4]}
        assert parsed["latency_cycles"] == 7

    def test_deadlock_exit_one(self, capsys):
        assert main(["schedule", f"{FIX}/alg1-worked.json", "--gate-offset", "1"]) == 1
        assert "no progress" in capsys.readouterr().err

    def test_zero_iterations_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", f"{FIX}/fig2.json", "--iterations", "0"])
        assert exc.value.code == 2
        assert "--iterations: must be >= 1, got 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_stimulus_file(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"xs": [[1, 2, 3, 4, 5, 6]],
                                    "ys": [[1, 2, 3, 4, 5, 6]]}))
        assert main(["simulate", f"{FIX}/fold-pipeline.json",
                     "--stimulus", str(stim)]) == 0
        out = capsys.readouterr().out
        assert "out: [91] (expected [91])" in out
        assert "cycles: 4" in out

    def test_stimulus_into_a_two_port_sink(self, tmp_path, capsys):
        # Both ports deliver a token per cycle, so the arrivals interleave
        # the ports while the reference lists them port by port.
        doc = {
            "meta": {"name": "two-port", "iterations": 1},
            "nodes": [
                {"name": "a", "kind": "source", "width": 8, "outputs": [[1, 1]]},
                {"name": "b", "kind": "source", "width": 8, "outputs": [[1, 1]]},
                {"name": "ma", "kind": "compute", "width": 8, "inputs": [[1, 1]],
                 "outputs": [[1, 1]],
                 "expr": "(map (lambda (x) (add x 1)) (input 0))"},
                {"name": "out", "kind": "sink", "width": 8,
                 "inputs": [[1, 1], [1, 1]]},
            ],
            "edges": [
                {"from": "a.0", "to": "ma.0"},
                {"from": "ma.0", "to": "out.0"},
                {"from": "b.0", "to": "out.1"},
            ],
        }
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"a": [[1, 2]], "b": [[10, 20]]}))
        assert main(["simulate", write_doc(tmp_path, doc), "--stimulus", str(stim)]) == 0
        out = capsys.readouterr().out
        assert "out: [2, 3, 10, 20] (expected [2, 3, 10, 20])\n" in out
        assert "MISMATCH" not in out
        assert "arrivals out: [(0, 2), (0, 10), (1, 3), (1, 20)]" in out

    def test_stimulus_with_loosened_gates_exit_one(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"xs": [list(range(1, 21))], "ys": [[1] * 20]}))
        assert main(["simulate", f"{FIX}/dotp-1x20.json", "--stimulus", str(stim),
                     "--gate-offset", "-1"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "underflows: ['zw.0->fl.0']" in out

    def test_random_trials(self, capsys):
        assert main(["simulate", f"{FIX}/fold-pipeline.json",
                     "--random", "5", "--seed", "3"]) == 0
        assert "5 trials, 0 mismatches" in capsys.readouterr().out

    def test_fault_injection_exit_one(self, capsys):
        assert main(["simulate", f"{FIX}/dotp-1x20.json",
                     "--random", "3", "--gate-offset", "-1"]) == 1
        out = capsys.readouterr().out
        assert "3 mismatches" in out
        assert "underflows: ['zw.0->fl.0']" in out

    def test_negative_iterations_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f"{FIX}/fig2.json", "--random", "2", "--iterations", "-1"])
        assert exc.value.code == 2
        assert "--iterations: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_no_trials_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f"{FIX}/fig2.json", "--random", trials])
        assert exc.value.code == 2
        assert f"--random: must be >= 1, got {trials}" in capsys.readouterr().err

    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f"{FIX}/fold-pipeline.json"])
        assert exc.value.code == 2

    def test_modes_are_exclusive(self, tmp_path):
        stim = tmp_path / "stim.json"
        stim.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f"{FIX}/fold-pipeline.json",
                  "--stimulus", str(stim), "--random", "3"])
        assert exc.value.code == 2

    def test_bad_stimulus_exit_one(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"xs": [[1]], "ys": [[1]]}))
        assert main(["simulate", f"{FIX}/fold-pipeline.json",
                     "--stimulus", str(stim)]) == 1
        assert "expected 6 tokens, got 1" in capsys.readouterr().err

    def test_stimulus_that_is_not_a_mapping_exit_one(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps([[1, 2, 3, 4, 5, 6]]))
        assert main(["simulate", f"{FIX}/fold-pipeline.json",
                     "--stimulus", str(stim)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stimulus must map source names")
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# estimate / emit
# ---------------------------------------------------------------------------

class TestEstimate:
    def test_text(self, capsys):
        assert main(["estimate", f"{FIX}/dotp-1010.json"]) == 0
        out = capsys.readouterr().out
        assert "totals: dsp=10" in out
        assert "memory_bits=720" in out

    def test_json(self, capsys):
        assert main(["estimate", f"{FIX}/dotp-1010.json", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["dsp_count"] == 10
        assert parsed["memory_bits"] == 720

    def test_sized_zero_iterations_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", f"{FIX}/fig2.json", "--sized", "--iterations", "0"])
        assert exc.value.code == 2
        assert "--iterations: must be >= 1, got 0" in capsys.readouterr().err


class TestEmit:
    def test_writes_design(self, tmp_path, capsys):
        out = tmp_path / "rtl"
        assert main(["emit", f"{FIX}/fig2.json", "--out", str(out)]) == 0
        assert "wrote 8 files" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [
            "c_ctrl.v", "c_datapath.v", "fig2_top.v", "manifest.json",
            "p_0__c_0_fifo.v", "p_0__c_0_fifo_ctrl.v", "p_ctrl.v",
            "p_datapath.v",
        ]

    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["emit", f"{FIX}/fig2.json", "--out", str(a)])
        main(["emit", f"{FIX}/fig2.json", "--out", str(b)])
        for pa in a.iterdir():
            assert pa.read_bytes() == (b / pa.name).read_bytes(), pa.name

    def test_sized_zero_iterations_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rtl"
        with pytest.raises(SystemExit) as exc:
            main(["emit", f"{FIX}/fig2.json", "--sized", "--iterations", "0",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--iterations: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_iterations_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", f"{FIX}/fig2.json", "--sized", "--iterations", "two",
                  "--out", str(tmp_path / "rtl")])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# global behavior
# ---------------------------------------------------------------------------

class TestGlobal:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"patflow {__version__}" in capsys.readouterr().out

    def test_no_arguments_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
