"""Command-line interface.

Exit codes: 0 on success, 1 for domain problems (validation diagnostics,
pattern or scheduling errors, simulation mismatches), 2 for malformed
inputs and usage errors.  Set ``PATFLOW_LOG=debug`` for progress logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .errors import DocumentError, ExprSyntaxError, PatflowError
from .graphs import Graph, build_graph, validate_graph
from .lowering import lower_edges
from .estimate import estimate_resources, render_report, report_to_json
from .schedule import (
    render_gantt,
    schedule_to_json,
    simulate_schedule,
    size_fifos,
    timing_report,
)
from .valuesim import equivalence_check, eval_combinational, simulate_clocked
from .rtl import emit_verilog, write_design

log = logging.getLogger("patflow")


def _load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _load_graph(path: str) -> Graph:
    doc = _load_document(path)
    g = build_graph(doc)
    log.debug("loaded '%s': %d nodes, %d edges", g.name, len(g.nodes), len(g.edges))
    return g


def _check(g: Graph) -> int:
    """Print diagnostics; 0 when clean."""
    diags = validate_graph(g)
    for d in diags:
        print(d, file=sys.stderr)
    return 1 if diags else 0


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc == 0:
        print(f"ok: '{g.name}' with {len(g.nodes)} nodes and {len(g.edges)} edges")
    return rc


def cmd_fc(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc:
        return rc
    lows = lower_edges(g)
    selected = [args.edge] if args.edge else [
        e.id for e in g.edges if lows[e.id].kind != "sink"
    ]
    for eid in selected:
        low = lows[g.edge(eid).id]
        print(f"{eid} {low.gate}")
    return 0


def cmd_schedule(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc:
        return rc
    s = simulate_schedule(g, args.iterations, gate_offset=args.gate_offset)
    t = timing_report(s, g)
    if args.json:
        payload = schedule_to_json(s)
        payload["latency_cycles"] = t.latency_cycles
        payload["throughput"] = t.throughput
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"graph:      {s.graph}")
    print(f"iterations: {s.iterations}")
    print(f"cycles:     {s.horizon}")
    print(f"latency:    {t.latency_cycles} cycles")
    print(f"throughput: {t.throughput:.4f} iterations/cycle")
    for name, starts in s.firing_starts.items():
        print(f"starts {name}: {starts}")
    for eid, peak in size_fifos(s, g).items():
        print(f"peak {eid}: {peak}")
    if args.gantt:
        print()
        print(render_gantt(s, g), end="")
    return 0


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc:
        return rc
    if args.stimulus:
        stim = _load_document(args.stimulus)
        result = simulate_clocked(g, stim, iterations=args.iterations,
                                  gate_offset=args.gate_offset)
        reference = eval_combinational(g, stim, iterations=args.iterations)
        ok = True
        for sink, values in sorted(reference.items()):
            # In port order, as the reference concatenates a sink's inputs.
            got = [v for e in g.in_edges(sink) for _, v in result.edge_arrivals[e.id]]
            marker = "" if got == values else "  <-- MISMATCH"
            if got != values:
                ok = False
            print(f"{sink}: {got} (expected {values}){marker}")
        for sink, pairs in sorted(result.arrivals.items()):
            print(f"arrivals {sink}: {pairs}")
        if result.underflow_edges:
            ok = False
            print(f"underflows: {result.underflow_edges}")
        print(f"cycles: {result.cycles}")
        return 0 if ok else 1
    report = equivalence_check(
        g,
        args.random,
        seed=args.seed,
        iterations=1 if args.iterations is None else args.iterations,
        gate_offset=args.gate_offset,
    )
    print(
        f"{report.trials} trials, {report.mismatches} mismatches "
        f"(gate offset {report.gate_offset})"
    )
    for ce in report.counterexamples:
        print(f"counterexample on {ce['edge']}:")
        print(f"  stimulus:  {ce['stimulus']}")
        print(f"  expected:  {ce['expected']}")
        print(f"  clocked:   {ce['clocked']}")
        if ce["underflows"]:
            print(f"  underflows: {ce['underflows']}")
    return 0 if report.ok else 1


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc:
        return rc
    capacities = None
    if args.sized:
        s = simulate_schedule(g, args.iterations)
        capacities = size_fifos(s, g)
    report = estimate_resources(g, capacities)
    if args.json:
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    else:
        print(render_report(report), end="")
    return 0


def cmd_emit(args) -> int:
    g = _load_graph(args.graph)
    rc = _check(g)
    if rc:
        return rc
    capacities = None
    if args.sized:
        s = simulate_schedule(g, args.iterations)
        capacities = size_fifos(s, g)
    files = emit_verilog(g, capacities)
    written = write_design(files, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _at_least(minimum: int):
    """argparse type for a count (of iterations or trials) no smaller than
    ``minimum``, so a bad count is a usage error (exit 2) rather than a
    library error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patflow",
        description="dataflow-with-access-patterns scheduling, simulation "
        "and RTL generation",
    )
    parser.add_argument("--version", action="version", version=f"patflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph document")
    p.add_argument("graph")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fc", help="print per-edge firing thresholds")
    p.add_argument("graph")
    p.add_argument("--edge", help="restrict to one edge (producer.port->consumer.port)")
    p.set_defaults(func=cmd_fc)

    p = sub.add_parser("schedule", help="run the cycle-accurate schedule")
    p.add_argument("graph")
    p.add_argument("--iterations", type=_at_least(1), default=None)
    p.add_argument("--gate-offset", type=int, default=0,
                   help="perturb every firing threshold (for experiments)")
    p.add_argument("--gantt", action="store_true", help="append an activity chart")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="value simulation and equivalence checking")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stimulus", help="JSON file: source name -> list of firing vectors")
    mode.add_argument("--random", type=_at_least(1), metavar="N",
                      help="N random-stimulus equivalence trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_at_least(0), default=None,
                   help="iterations to run (default: the stimulus depth, or 1 with --random)")
    p.add_argument("--gate-offset", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="resource estimate")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--sized", action="store_true",
                   help="size FIFOs from a schedule run instead of the per-firing default")
    p.add_argument("--iterations", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("emit", help="write Verilog modules and a manifest")
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    p.add_argument("--sized", action="store_true",
                   help="size FIFOs from a schedule run instead of the per-firing default")
    p.add_argument("--iterations", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_emit)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PATFLOW_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (DocumentError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PatflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
