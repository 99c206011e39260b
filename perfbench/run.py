"""patflow benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload equiv-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; patflow is imported from its ``src``.  One
process and one thread issue every op, each after the previous one has
returned and been checked.  ``--trace 0`` prints the end-to-end metrics,
measured with tracing off; ``--trace 1`` runs every op once untraced and
once traced and prints the per-layer metrics (see README.md).  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-ups per run; setup_s is their median.
SETUPS = 5
# op_ms.tail is the highest percentile with this many samples above it.
TAIL_BEYOND = 10


def fresh_import():
    """Import patflow from the checkout as a new process would."""
    for name in [m for m in sys.modules if m == "patflow" or m.startswith("patflow.")]:
        del sys.modules[name]
    pf = importlib.import_module("patflow")
    importlib.import_module("patflow.fixtures")
    importlib.import_module("patflow.rtl")
    if not os.path.abspath(pf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"patflow was imported from {pf.__file__}, not from {SRC}")
    return pf


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the nearest-rank percentile with TAIL_BEYOND
    samples above it, or the maximum when there are not that many."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return 100 * rank / n, ordered[rank - 1]


def slope(groups: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(group key)."""
    pts = [(math.log(k), math.log(statistics.median(v))) for k, v in groups.items() if v]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


class Run:
    """The timed loop and everything it records."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.samples: list[tuple[object, float, dict]] = []  # untraced
        self.traced: list[tuple[object, float, dict]] = []
        self.traced_stats: dict[str, set] = {}
        self.problems: list[str] = []
        self.attempted = 0

    def execute(self, op, k: int, traced: bool) -> None:
        gc.collect()
        self.attempted += 1
        tr = self.tracer if traced else None
        if tr:
            before = (tr.cycles, tr.firings)
            tr.install()
        try:
            with tr.op(f"op:{op.key}") if tr else contextlib.nullcontext():
                t0 = time.perf_counter_ns()
                facts = self.wl.run(op, k)
                dt = (time.perf_counter_ns() - t0) / 1e9
        except Exception as exc:  # an op that raises is a failed op; keep going
            self.problems.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            if tr:
                tr.uninstall()
        self.problems += self.wl.check(op, facts)
        if tr:
            self.traced.append((op, dt, facts))
            got = (tr.cycles - before[0], tr.firings - before[1])
            self.traced_stats.setdefault(op.key, set()).add(got)
        else:
            self.samples.append((op, dt, facts))

    def loop(self, seconds: float) -> None:
        ops = self.wl.ops
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            op = ops[k % len(ops)]
            self.execute(op, k, traced=False)
            if self.tracer is not None:
                self.execute(op, k, traced=True)
            k += 1

    def finish(self) -> None:
        made, problems = self.wl.verify()
        self.attempted += made
        self.problems += problems
        for key, seen in self.traced_stats.items():
            if seen != {self.wl.stats.get(key)}:
                self.problems.append(
                    f"{key}: traced run simulated {sorted(seen)}, untraced "
                    f"{self.wl.stats.get(key)} (cycles, firings)")


def best_times(samples) -> dict[str, tuple[object, float, dict]]:
    """Per op key: the op, its fastest time in the run, and its facts.

    The host's speed alternates between phases some 40% apart, each lasting
    seconds, so a median moves with the share of the run spent in slow
    phases while the fastest of an input's several samples does not.
    """
    best: dict[str, tuple[object, float, dict]] = {}
    for op, dt, facts in samples:
        if op.key not in best or dt < best[op.key][1]:
            best[op.key] = (op, dt, facts)
    return best


def round_rate(run: Run, best) -> tuple[int, float, int, int]:
    """(ops, seconds, nodes, cycles) of one round of the op list, every
    input at its fastest time."""
    ops = total = nodes = cycles = 0
    for op in run.wl.ops:
        if op.key in best:
            _, dt, facts = best[op.key]
            ops += 1
            total += dt
            nodes += facts["nodes"]
            cycles += run.wl.cycles(op)
    return ops, total, nodes, cycles


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    best = best_times(run.samples)
    ops, total, nodes, cycles = round_rate(run, best)
    per_op = [best[op.key][1] for op in run.wl.ops if op.key in best]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / total, "1/s"),
        "op_ms.p50": (statistics.median(per_op) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_cycles_per_s": (cycles / total, "1/s"),
        "host_us_per_node": (total / nodes * 1e6, "us"),
    }


def scaling(run: Run) -> dict[str, float]:
    """Log-log slopes over per-size (per-iteration-count) medians of each
    input's fastest time."""
    by_size: dict[int, list[float]] = {}
    by_iter: dict[int, list[float]] = {}
    for op, dt, facts in best_times(run.samples).values():
        by_size.setdefault(facts["nodes"], []).append(dt)
        by_iter.setdefault(op.iterations, []).append(dt)
    return {
        "node_scaling_exp": slope(by_size) if run.wl.name == "compile-large" else 0.0,
        "iter_scaling_exp": slope(by_iter) if run.wl.name == "stream-long" else 0.0,
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    tr = run.tracer
    n = len(run.traced)
    st = tr.stats

    def calls(key):
        return (st[key].calls / n, "count")

    def ms(*keys):
        return (sum(st[k].self_ns for k in keys) / n / 1e6, "ms")

    def avg(field):
        return (sum(f.get(field, 0) for _, _, f in run.traced) / n, "count")

    sim_ns = st["schedule.simulate"].total_ns + st["valuesim.clocked"].total_ns
    ops, total, _, _ = round_rate(run, best_times(run.samples))
    untraced = ops / total
    ops, total, _, _ = round_rate(run, best_times(run.traced))
    traced = ops / total
    wl = run.wl
    m = {
        "patterns.threshold_calls": calls("patterns.threshold"),
        "patterns.threshold_ms": ms("patterns.threshold"),
        "exprs.eval_calls": calls("exprs.eval"),
        "exprs.eval_ms": ms("exprs.eval"),
        "graphs.build_ms": ms("graphs.build"),
        "graphs.validate_ms": ms("graphs.validate"),
        "graphs.repvec_calls": calls("graphs.repvec"),
        "graphs.repvec_ms": ms("graphs.repvec"),
        "graphs.in_edges_calls": calls("graphs.in_edges"),
        "graphs.in_edges_ms": ms("graphs.in_edges"),
        "graphs.topo_ms": ms("graphs.topo"),
        "lowering.plan_calls": calls("lowering.plan"),
        "lowering.plan_ms": ms("lowering.plan"),
        "lowering.gate_table_calls": calls("lowering.gate_table"),
        "lowering.gate_table_ms": ms("lowering.gate_table"),
        "lowering.edges_ms": ms("lowering.edges"),
        "schedule.simulate_ms": ms("schedule.simulate"),
        "schedule.report_ms": ms("schedule.timing", "schedule.size", "schedule.to_json"),
        "schedule.cycles": (tr.cycles / n, "count"),
        "schedule.firings": (tr.firings / n, "count"),
        "schedule.ns_per_cycle": (sim_ns / tr.cycles if tr.cycles else 0.0, "ns"),
        "schedule.trace_entries": (tr.trace_entries / n, "count"),
        "valuesim.check_self_ms": ms("valuesim.check"),
        "valuesim.clocked_ms": ms("valuesim.clocked"),
        "valuesim.stimulus_ms": ms("valuesim.stimulus"),
        "valuesim.fault_detect_ratio": (
            wl.fault_caught / wl.fault_trials if getattr(wl, "fault_trials", 0) else 0.0,
            "ratio"),
        "estimate.ms": ms("estimate"),
        "rtl.lower_ms": ms("rtl.lower"),
        "rtl.check_ms": ms("rtl.check"),
        "rtl.render_ms": ms("rtl.render"),
        "rtl.emit_ms": ms("rtl.emit"),
        "rtl.modules": avg("modules"),
        "rtl.verilog_bytes": (avg("verilog_bytes")[0], "bytes"),
    }
    for layer in spans.LAYERS:
        errors = sum(s.errors for k, s in st.items() if k.split(".")[0] == layer)
        m[f"{layer}.errors"] = (errors / n, "count")
    m["op_ms.tail"] = (tail([dt for _, dt, _ in run.samples])[1] * 1e3, "ms")
    m["trace.overhead_ops_per_s"] = (untraced - traced, "1/s")
    m["trace.overhead_pct"] = ((untraced - traced) / untraced * 100, "%")
    for name, value in scaling(run).items():
        m[name] = (value, "slope")
    return m


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "patflow", "__init__.py")):
        print(f"error: no patflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups = []
    for i in range(SETUPS):
        t0 = t_start if i == 0 else time.perf_counter()
        pf = fresh_import()
        wl = workloads.WORKLOADS[args.workload](pf, args.seed)
        setups.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            del wl
            gc.collect()
    # Set-up objects live for the whole run; freezing them keeps every
    # collection during the ops as cheap as in a process that loaded one
    # document.
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer() if args.trace else None
    run = Run(wl, tracer)
    run.loop(args.seconds)
    run.finish()

    failed = len(run.problems)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    if not run.samples:
        print("error: every op failed; nothing was measured", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(run)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_ops": len(run.traced)})
        print(f"spans: {len(tracer.spans)} kept, written to {os.path.relpath(path, ROOT)}")
        fault = getattr(wl, "fault_trials", 0)
        if fault:
            print(f"valuesim.fault_detect_ratio base: {wl.fault_caught} of {fault} "
                  "fault trials caught")
    else:
        metrics = end_to_end(run, statistics.median(setups))
        extra = scaling(run)
        tail_q, tail_s = tail([dt for _, dt, _ in run.samples])
        print(f"{args.workload} seed {args.seed}: {len(run.samples)} ops, closed loop, "
              f"one caller; setup_s is the median of {SETUPS} set-ups")
        print(f"op_ms.tail {tail_s * 1e3:.4f} ms, p{tail_q:.2f} over {len(run.samples)} ops")
        print(f"failed_ops_ratio {failed / run.attempted:.6f} "
              f"({failed} of {run.attempted} ops and checks)")
        for name, value in extra.items():
            if value:
                print(f"{name} {value:.4f} slope")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
