"""Shared helpers for the test suite.

``make_dotp`` builds the canonical streaming dot-product design used across
the scheduler, estimator, and acceptance tests: two sources feed a zipWith
multiplier whose products stream into a running-sum fold.  The element count
is fixed by the access pattern handed in, so the same builder covers every
folding variant from fully parallel ([n]) to fully sequential ([1]*n).

``oracle_thresholds`` is a deliberately naive reference for the firing
threshold tables: it walks the consumer's timeline cycle by cycle and
linearly searches for the smallest buffered token count that avoids
underflow.  It shares no code and no algebra with the closed form under
test, which is what makes the exhaustive comparison meaningful.

``generated_graph`` builds a design of the benchmark's generator
(``perfbench/designs.py``), loaded from its file; ``one_node_doc`` wraps one
compute node between sources and a sink.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import pathlib
import sys

from patflow import Graph, build_graph

DESIGNS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "designs.py"

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run so the verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dotp_document(phases: list[int], *, width: int = 18, name: str | None = None) -> dict:
    """Return a dot-product design document streaming ``phases`` per firing."""
    total = sum(phases)
    length = len(phases)
    fold_out = [0] * (length - 1) + [1]
    return {
        "meta": {"name": name or f"dotp-{total}", "iterations": 1},
        "nodes": [
            {"name": "xs", "kind": "source", "width": width, "outputs": [phases]},
            {"name": "ys", "kind": "source", "width": width, "outputs": [phases]},
            {
                "name": "zw",
                "kind": "compute",
                "width": width,
                "inputs": [phases, phases],
                "outputs": [phases],
                "expr": "(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))",
            },
            {
                "name": "fl",
                "kind": "compute",
                "width": width,
                "inputs": [phases],
                "outputs": [fold_out],
                "expr": "(foldl1 (lambda (a b) (add a b)) (input 0))",
            },
            {"name": "out", "kind": "sink", "width": width, "inputs": [[0] * (length - 1) + [1]]},
        ],
        "edges": [
            {"from": "xs.0", "to": "zw.0"},
            {"from": "ys.0", "to": "zw.1"},
            {"from": "zw.0", "to": "fl.0"},
            {"from": "fl.0", "to": "out.0"},
        ],
    }


def make_dotp(phases: list[int], *, width: int = 18) -> Graph:
    """Build the dot-product graph for one access-pattern refinement."""
    return build_graph(dotp_document(phases, width=width))


@functools.lru_cache(maxsize=None)
def _designs():
    """The benchmark's design generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_designs", DESIGNS_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while it loads
    spec.loader.exec_module(mod)
    return mod


def generated_graph(family: str, size: int, seed: int = 0) -> Graph:
    """The benchmark generator's ``family`` design of ``size`` nodes."""
    return build_graph(_designs().generate(family, size, seed).doc)


def _survives(buffered: int, future_pp: tuple[int, ...], cp: tuple[int, ...],
              registered: bool) -> bool:
    """Walk the consumer timeline; True if the buffer never underflows.

    ``future_pp`` is the producer's remaining pattern, aligned so its first
    entry lands in the consumer's first cycle.  With ``registered`` the
    producer's tokens only become usable one cycle after production.
    """
    have = buffered
    for i in range(len(cp)):
        j = i - 1 if registered else i
        if 0 <= j < len(future_pp):
            have += future_pp[j]
        have -= cp[i]
        if have < 0:
            return False
    return True


def oracle_thresholds(pp: tuple[int, ...], cp: tuple[int, ...],
                      registered: bool = False) -> tuple[int, ...]:
    """Smallest safe buffer occupancy per producer phase, by linear search."""
    entries = []
    for j in range(len(pp) + 1):
        future = pp[j:]
        f = 0
        while not _survives(f, future, cp, registered):
            f += 1
        entries.append(f)
    return tuple(entries)


def zero_n_patterns(max_len: int, max_n: int) -> list[tuple[int, ...]]:
    """Every valid pattern of length <= max_len over {0, n} with n <= max_n."""
    out = set()
    for length in range(1, max_len + 1):
        for mask in itertools.product((0, 1), repeat=length):
            if not any(mask):
                continue
            for n in range(1, max_n + 1):
                out.add(tuple(bit * n for bit in mask))
    return sorted(out)


def one_node_doc(expr: str, inputs: list, outputs: list) -> dict:
    """One source per input port feeding compute node ``c``, whose output
    ports feed the input ports of one sink."""
    nodes = [
        {"name": f"s{i}", "kind": "source", "width": 8, "outputs": [p]}
        for i, p in enumerate(inputs)
    ]
    nodes.append({"name": "c", "kind": "compute", "width": 8, "expr": expr,
                  "inputs": inputs, "outputs": outputs})
    nodes.append({"name": "o", "kind": "sink", "width": 8, "inputs": outputs})
    edges = [{"from": f"s{i}.0", "to": f"c.{i}"} for i in range(len(inputs))]
    edges += [{"from": f"c.{k}", "to": f"o.{k}"} for k in range(len(outputs))]
    return {"meta": {"name": "one", "iterations": 1}, "nodes": nodes, "edges": edges}
