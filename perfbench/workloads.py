"""The benchmark's workloads: inputs, the timed op, and its output checks.

Each workload is a closed loop with one caller: the next op starts only
after the previous one has returned and been checked.  An op is what one
CLI command does, run in-process on an already loaded document:

* ``equiv-mix``: one trial of ``patflow simulate --random``, i.e.
  ``equivalence_check(g, 1, ...)`` on a built graph.
* ``compile-large``: ``patflow emit --sized --iterations 2`` from the
  document: build, validate, schedule, size, estimate, emit.
* ``stream-long``: ``patflow schedule --json`` on a built graph, at 100 or
  1000 iterations.

Only :meth:`Workload.run` is timed; :meth:`Workload.check` runs after it
and returns one problem string per failed op.  :meth:`Workload.verify`
runs once after the timed loop and returns how many checks it made and one
problem string per failed check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import checks
import designs

# Designs whose outputs have committed digests: the same in every run.
ORACLE_SEED = 0


@dataclass(frozen=True)
class Op:
    """One entry of a workload's op list."""

    key: str  # names the input: the same key must give the same output
    doc: str  # document name
    iterations: int = 1
    gate_offset: int = 0


@dataclass(frozen=True)
class Doc:
    """A loaded document with the firing rates the checks expect."""

    doc: dict
    graph: object
    rates: dict[str, int]
    design: designs.Design | None = None

    @property
    def nodes(self) -> int:
        return len(self.doc["nodes"])


def fixture_docs(pf) -> dict[str, dict]:
    return {name: pf.fixtures.load(name) for name in pf.fixtures.names()}


def dotp_doc(phases: tuple[int, ...], width: int = 18) -> dict:
    """The streaming dot product of the paper for one refinement of 20."""
    fold_out = [0] * (len(phases) - 1) + [1]
    p = list(phases)
    return {
        "meta": {"name": f"dotp-r{len(p)}", "iterations": 1},
        "nodes": [
            {"name": "xs", "kind": "source", "width": width, "outputs": [p]},
            {"name": "ys", "kind": "source", "width": width, "outputs": [p]},
            {"name": "zw", "kind": "compute", "width": width, "inputs": [p, p],
             "outputs": [p],
             "expr": "(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))"},
            {"name": "fl", "kind": "compute", "width": width, "inputs": [p],
             "outputs": [fold_out],
             "expr": "(foldl1 (lambda (a b) (add a b)) (input 0))"},
            {"name": "out", "kind": "sink", "width": width, "inputs": [fold_out]},
        ],
        "edges": [
            {"from": "xs.0", "to": "zw.0"},
            {"from": "ys.0", "to": "zw.1"},
            {"from": "zw.0", "to": "fl.0"},
            {"from": "fl.0", "to": "out.0"},
        ],
    }


def schedule_payload(pf, g, iterations: int):
    """What ``patflow schedule --json`` prints, plus the schedule and peaks."""
    s = pf.simulate_schedule(g, iterations)
    t = pf.timing_report(s, g)
    peaks = pf.size_fifos(s, g)
    payload = pf.schedule_to_json(s)
    payload["latency_cycles"] = t.latency_cycles
    payload["throughput"] = t.throughput
    return s, peaks, payload


def files_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def emit_sized(pf, g, iterations: int = 2):
    """``patflow emit --sized``: schedule, size, estimate and emit."""
    s = pf.simulate_schedule(g, iterations)
    caps = pf.size_fifos(s, g)
    report = pf.estimate_resources(g, caps)
    files = pf.emit_verilog(g, caps)
    return s, report, files


class Workload:
    """Base: a seeded set of documents and the ops run over them."""

    name = ""

    def __init__(self, pf, seed: int):
        self.pf = pf
        self.seed = seed
        self.docs: dict[str, Doc] = {}
        self.ops: list[Op] = []
        # Simulated cycles and firings per op key, for sim_cycles_per_s and
        # for comparing traced against untraced runs.
        self.stats: dict[str, tuple[int, int]] = {}
        self.digests = checks.load_digests()

    def add(self, doc: dict, design: designs.Design | None = None) -> str:
        """Build and validate ``doc``: the "first build" of set-up."""
        g = self.pf.build_graph(doc)
        diags = self.pf.validate_graph(g)
        if diags:
            raise RuntimeError(
                f"benchmark input '{doc['meta']['name']}' fails validation: {diags[0]}")
        rates = design.rates if design else checks.balance(doc)
        name = doc["meta"]["name"]
        self.docs[name] = Doc(doc, g, rates, design)
        return name

    def run(self, op: Op, k: int) -> dict:
        raise NotImplementedError

    def check(self, op: Op, facts: dict) -> list[str]:
        return []

    def verify(self) -> tuple[int, list[str]]:
        return 0, []

    def cycles(self, op: Op) -> int:
        return self.stats[op.key][0]


# ---------------------------------------------------------------------------
# equiv-mix

# Generated graphs: every family at three sizes up to 24 nodes, small enough
# that the work done before each trial stays a large share of it.
EQUIV_SIZES = (8, 14, 24)
# The bundled fixtures and the dot-product family are cheap next to the
# generated graphs, so each round runs them this many times.
EQUIV_FIXED_REPEATS = 2
# Fault-injection trials per batch, one batch per round; at least one trial
# of every batch must report a mismatch.
FAULT_TRIALS = 4
FAULT_DOC = "dotp-1x20"


class EquivMix(Workload):
    name = "equiv-mix"

    def __init__(self, pf, seed: int):
        super().__init__(pf, seed)
        fixed = [self.add(doc) for doc in fixture_docs(pf).values()]
        fixed += [self.add(dotp_doc(p.phases)) for p in pf.divisor_refinements(20)]
        generated = [self.add(d.doc, d) for d in (
            designs.generate(fam, size, seed)
            for size in EQUIV_SIZES for fam in designs.FAMILIES)]
        for _ in range(EQUIV_FIXED_REPEATS):
            for it in (1, 4):
                self.ops += [Op(f"{n}@{it}", n, it) for n in fixed]
        for it in (1, 4):
            self.ops += [Op(f"{n}@{it}", n, it) for n in generated]
        self.ops += [Op(f"{FAULT_DOC}@1-fault", FAULT_DOC, 1, -1)] * FAULT_TRIALS
        self._caught = 0  # trials caught in the current fault batch
        self._batch_seen = 0
        self.fault_trials = 0
        self.fault_caught = 0

    def run(self, op: Op, k: int) -> dict:
        d = self.docs[op.doc]
        report = self.pf.equivalence_check(
            d.graph, 1, seed=self.seed * 1_000_003 + k,
            iterations=op.iterations, gate_offset=op.gate_offset)
        return {"nodes": d.nodes, "mismatches": report.mismatches,
                "trials": report.trials, "examples": len(report.counterexamples)}

    def check(self, op: Op, facts: dict) -> list[str]:
        if facts["trials"] != 1:
            return [f"{op.key}: ran {facts['trials']} trials, asked for 1"]
        if op.gate_offset == 0:
            if facts["mismatches"] or facts["examples"]:
                return [f"{op.key}: {facts['mismatches']} mismatches on a clean trial"]
            return []
        self.fault_trials += 1
        self.fault_caught += facts["mismatches"] > 0
        self._caught += facts["mismatches"] > 0
        self._batch_seen += 1
        if self._batch_seen < FAULT_TRIALS:
            return []
        caught, self._caught, self._batch_seen = self._caught, 0, 0
        if caught:
            return []
        return [f"{op.key}: no trial of a {FAULT_TRIALS}-trial fault batch was caught"
                ] * FAULT_TRIALS

    def verify(self) -> tuple[int, list[str]]:
        """One clocked run per configuration, with a benchmark-made stimulus.

        Firing decisions never depend on token values, so the underflows,
        firing counts and cycles of this run hold for every trial of the
        same configuration.
        """
        configs = {op.key: op for op in self.ops}.values()
        problems = []
        for op in configs:
            d = self.docs[op.doc]
            stim = self.pf.random_stimulus(d.graph, op.iterations, seed=self.seed)
            res = self.pf.simulate_clocked(d.graph, stim, iterations=op.iterations,
                                           gate_offset=op.gate_offset)
            firings = sum(len(v) for v in res.firing_starts.values())
            self.stats[op.key] = (res.cycles, firings)
            if op.gate_offset:
                if not res.underflow_edges:
                    problems.append(f"{op.key}: fault run shows no underflow")
                continue
            found = []
            if res.underflow_edges:
                found.append(f"underflows on {res.underflow_edges}")
            found += [f"{node} fired {len(res.firing_starts[node])} times"
                      for node, rate in d.rates.items()
                      if len(res.firing_starts[node]) != rate * op.iterations]
            if op.doc.startswith("dotp-"):
                width = d.doc["nodes"][0]["width"]
                if res.values("out") != checks.dotp_value(stim, width):
                    found.append("dot products differ from sum(x*y)")
            if found:
                problems.append(f"{op.key}: " + "; ".join(found))
        return len(configs), problems


# ---------------------------------------------------------------------------
# compile-large

# Node counts doubling twice, so the log-log slope of per-size medians
# shows super-linear graph and RTL passes; 400 nodes is a large design that
# still compiles in well under a second.
COMPILE_SIZES = (100, 200, 400)
COMPILE_ITERATIONS = 2


class CompileLarge(Workload):
    name = "compile-large"

    def __init__(self, pf, seed: int):
        super().__init__(pf, seed)
        # Sizes alternate, so the ops of a round cut short by the clock
        # still cover every size about equally.
        for fam in designs.FAMILIES:
            for size in COMPILE_SIZES:
                d = designs.generate(fam, size, seed)
                name = self.add(d.doc, d)
                self.ops.append(Op(name, name, COMPILE_ITERATIONS))
        self._digests: dict[str, str] = {}

    def run(self, op: Op, k: int) -> dict:
        doc = self.docs[op.doc].doc
        g = self.pf.build_graph(doc)
        diags = self.pf.validate_graph(g)
        s, report, files = emit_sized(self.pf, g, op.iterations)
        return {"nodes": len(g.nodes), "diags": len(diags), "schedule": s,
                "report": report, "files": files}

    def check(self, op: Op, facts: dict) -> list[str]:
        d = self.docs[op.doc].design
        s, files = facts.pop("schedule"), facts.pop("files")
        report = facts.pop("report")
        stats = (s.horizon, sum(len(v) for v in s.firing_starts.values()))
        self.stats.setdefault(op.key, stats)
        facts["modules"] = sum(1 for f in files if f.endswith(".v"))
        facts["verilog_bytes"] = sum(len(t) for t in files.values())
        found = []
        if facts["diags"]:
            found.append("generated design has diagnostics")
        if self.stats[op.key] != stats:
            found.append("schedule changed between runs")
        if facts["modules"] != d.modules:
            found.append(f"{facts['modules']} modules, expected {d.modules}")
        listed = {m["file"] for m in json.loads(files["manifest.json"])["modules"]}
        if listed != {f for f in files if f.endswith(".v")}:
            found.append("manifest does not list the emitted files")
        muls = sum(t.count(" * ") for f, t in files.items() if f.endswith("_datapath.v"))
        if report.dsp_count != d.muls or muls != d.muls:
            found.append(f"{report.dsp_count} DSPs and {muls} multipliers, expected {d.muls}")
        digest = files_digest(files)
        if self._digests.setdefault(op.key, digest) != digest:
            found.append("emitted files changed between runs")
        return [f"{op.key}: " + "; ".join(found)] if found else []

    def verify(self) -> tuple[int, list[str]]:
        digests = oracle_emit_digests(self.pf)
        return len(digests), [f"emit {name}: digest differs from the recorded one"
                              for name, digest in digests.items()
                              if self.digests["emit"].get(name) != digest]


def oracle_emit_digests(pf) -> dict[str, str]:
    """Digests of the emitted files of the fixtures and the oracle designs."""
    docs = list(fixture_docs(pf).values())
    docs += [designs.generate(fam, COMPILE_SIZES[0], ORACLE_SEED).doc
             for fam in designs.FAMILIES]
    out = {}
    for doc in docs:
        _, _, files = emit_sized(pf, pf.build_graph(doc), COMPILE_ITERATIONS)
        out[doc["meta"]["name"]] = files_digest(files)
    return out


# ---------------------------------------------------------------------------
# stream-long

# Iteration counts a decade apart, so the log-log slope of per-count
# medians shows whether host time grows faster than the simulated run.
STREAM_ITERATIONS = (100, 1000)
# Generated graphs: one per family, spread over 20 to 50 nodes.  Large
# enough that per-cycle stepping dominates, small enough that 1000
# iterations take about a second and a run holds several rounds.
STREAM_SIZES = (20, 28, 35, 42, 50)


class StreamLong(Workload):
    name = "stream-long"

    def __init__(self, pf, seed: int):
        super().__init__(pf, seed)
        fixtures = [self.add(doc) for doc in fixture_docs(pf).values()]
        generated = [self.add(d.doc, d) for d in (
            designs.generate(fam, size, seed)
            for fam, size in zip(designs.FAMILIES, STREAM_SIZES))]
        # Fixtures, sizes and iteration counts alternate, so the ops of a
        # round cut short by the clock are still a balanced sample.
        for k, name in enumerate(generated):
            names = [name] + fixtures[k * len(fixtures) // len(generated):
                                      (k + 1) * len(fixtures) // len(generated)]
            self.ops += [Op(f"{n}@{it}", n, it) for n in names for it in STREAM_ITERATIONS]
        self._digests: dict[str, str] = {}

    def run(self, op: Op, k: int) -> dict:
        d = self.docs[op.doc]
        s, peaks, payload = schedule_payload(self.pf, d.graph, op.iterations)
        return {"nodes": d.nodes, "schedule": s, "peaks": peaks, "payload": payload}

    def check(self, op: Op, facts: dict) -> list[str]:
        d = self.docs[op.doc]
        s, peaks = facts.pop("schedule"), facts.pop("peaks")
        digest = checks.digest(facts.pop("payload"))
        stats = (s.horizon, sum(len(v) for v in s.firing_starts.values()))
        facts["trace_entries"] = sum(len(v) for v in s.per_edge_occupancy.values())
        first = op.key not in self._digests
        if self._digests.setdefault(op.key, digest) != digest:
            return [f"{op.key}: schedule changed between runs"]
        self.stats.setdefault(op.key, stats)
        if not first:
            return []
        if d.design is None and self.digests["schedule"].get(op.key) != digest:
            return [f"{op.key}: schedule digest differs from the recorded one"]
        problem = checks.check_schedule(d.doc, d.rates, op.iterations, s, peaks)
        return [f"{op.key}: {problem}"] if problem else []

    def verify(self) -> tuple[int, list[str]]:
        problems = []
        pf = self.pf
        for name, want in checks.PAPER_LATENCY.items():
            g = self.docs[name].graph
            got = pf.timing_report(pf.simulate_schedule(g), g).latency_cycles
            if got != want:
                problems.append(f"{name}: latency {got}, paper says {want}")
            dsp = pf.estimate_resources(g).dsp_count
            if dsp != checks.PAPER_DSP[name]:
                problems.append(f"{name}: {dsp} DSPs, paper says {checks.PAPER_DSP[name]}")
        starts = pf.simulate_schedule(self.docs["fig2"].graph).firing_starts
        if {n: starts[n] for n in checks.PAPER_FIG2_STARTS} != checks.PAPER_FIG2_STARTS:
            problems.append(f"fig2: starts {starts}, paper says {checks.PAPER_FIG2_STARTS}")
        digests = oracle_schedule_digests(pf)
        problems += [f"schedule {name}: digest differs from the recorded one"
                     for name, digest in digests.items()
                     if self.digests["schedule"].get(name) != digest]
        made = len(checks.PAPER_LATENCY) + len(checks.PAPER_DSP) + 1 + len(digests)
        return made, problems


def oracle_schedule_digests(pf, fixtures: bool = False) -> dict[str, str]:
    """Schedule digests of the oracle designs (and the fixtures if asked)."""
    docs = [designs.generate(fam, size, ORACLE_SEED).doc
            for fam, size in zip(designs.FAMILIES, STREAM_SIZES)]
    runs = [(doc, STREAM_ITERATIONS[0]) for doc in docs]
    if fixtures:
        runs += [(doc, it) for doc in fixture_docs(pf).values()
                 for it in STREAM_ITERATIONS]
    out = {}
    for doc, it in runs:
        _, _, payload = schedule_payload(pf, pf.build_graph(doc), it)
        out[f"{doc['meta']['name']}@{it}"] = checks.digest(payload)
    return out


WORKLOADS = {w.name: w for w in (EquivMix, CompileLarge, StreamLong)}
