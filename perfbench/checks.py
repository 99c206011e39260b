"""Expected values the benchmark checks patflow's outputs against.

None of these comes from the code under test: firing counts come from the
generator's chosen rates or from balancing the document's patterns here,
occupancies from replaying firing starts against the patterns, the paper
values are constants, and the digests were recorded once from the program's
output at the commit that added the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Values from the paper's tables, on the bundled fixtures at one iteration.
PAPER_LATENCY = {"dotp-1x20": 21, "dotp-5555": 5, "dotp-1010": 3, "dotp-20": 2}
PAPER_DSP = {"dotp-1x20": 1, "dotp-5555": 5, "dotp-1010": 10, "dotp-20": 20}
PAPER_FIG2_STARTS = {"p": [0, 2, 4], "c": [4]}


def digest(payload) -> str:
    """sha256 of a JSON value with sorted keys."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as f:
        return json.load(f)


def _ports(doc: dict):
    """Per node: kind and patterns; per edge: (producer, port, consumer, port)."""
    nodes = {n["name"]: n for n in doc["nodes"]}
    edges = []
    for e in doc["edges"]:
        p, pp = e["from"].rsplit(".", 1)
        c, cp = e["to"].rsplit(".", 1)
        edges.append((p, int(pp), c, int(cp)))
    return nodes, edges


def balance(doc: dict) -> dict[str, int]:
    """Minimal firings per iteration of every non-sink node of ``doc``."""
    nodes, edges = _ports(doc)
    links: dict[str, list[tuple[str, Fraction]]] = {n: [] for n in nodes}
    for p, pp, c, cp in edges:
        ratio = Fraction(sum(nodes[p]["outputs"][pp]), sum(nodes[c]["inputs"][cp]))
        links[p].append((c, ratio))
        links[c].append((p, 1 / ratio))
    rate: dict[str, Fraction] = {}
    for seed in nodes:
        if seed in rate:
            continue
        rate[seed] = Fraction(1)
        todo, comp = [seed], [seed]
        while todo:
            cur = todo.pop()
            for other, ratio in links[cur]:
                if other not in rate:
                    rate[other] = rate[cur] * ratio
                    comp.append(other)
                    todo.append(other)
        scale = math.lcm(*(rate[n].denominator for n in comp))
        common = math.gcd(*(int(rate[n] * scale) for n in comp))
        for n in comp:
            rate[n] = rate[n] * scale / common
    return {n: int(r) for n, r in rate.items() if nodes[n]["kind"] != "sink"}


def replay(doc: dict, starts: dict[str, list[int]], horizon: int) -> dict[str, list[int]]:
    """Occupancy of every buffered edge at each cycle, as its consumer samples it.

    Tokens a source supplies in cycle t can be consumed in cycle t; tokens a
    compute node produces in cycle t land behind its output register and
    count from cycle t + 1.  The value for cycle t is what is buffered after
    that cycle's supply and before that cycle's consumption.  Raises
    ``ValueError`` when a consumer would take a token that is not there.
    """
    nodes, edges = _ports(doc)
    out: dict[str, list[int]] = {}
    for p, pp, c, cp in edges:
        if nodes[c]["kind"] == "sink":
            continue
        delay = 0 if nodes[p]["kind"] == "source" else 1
        made = [0] * (horizon + 1)
        for s in starts[p]:
            for k, n in enumerate(nodes[p]["outputs"][pp]):
                if s + k + delay <= horizon:
                    made[s + k + delay] += n
        taken = [0] * (horizon + 1)
        for s in starts[c]:
            for k, n in enumerate(nodes[c]["inputs"][cp]):
                taken[s + k] += n
        eid = f"{p}.{pp}->{c}.{cp}"
        level, trace = 0, []
        for t in range(horizon):
            level += made[t]
            trace.append(level)
            level -= taken[t]
            if level < 0:
                raise ValueError(f"edge {eid} goes negative at cycle {t}")
        out[eid] = trace
    return out


def check_schedule(doc: dict, rates: dict[str, int], iterations: int, sched,
                   peaks: dict[str, int]) -> str | None:
    """Firing counts, replayed occupancies and FIFO peaks of one schedule.

    Returns a description of the first problem, or None.
    """
    for node, rate in rates.items():
        got = len(sched.firing_starts.get(node, ()))
        if got != rate * iterations:
            return f"{node} fired {got} times, expected {rate * iterations}"
    try:
        traces = replay(doc, sched.firing_starts, sched.horizon)
    except ValueError as exc:
        return str(exc)
    if traces.keys() != sched.per_edge_occupancy.keys():
        return f"traced edges {sorted(sched.per_edge_occupancy)}, expected {sorted(traces)}"
    for eid, trace in traces.items():
        if trace != sched.per_edge_occupancy[eid]:
            return f"{eid} occupancy trace differs from the replay"
        if max(trace, default=0) != peaks.get(eid):
            return f"{eid} peaks at {max(trace, default=0)}, size_fifos says {peaks.get(eid)}"
    return None


def dotp_value(stimulus: dict[str, list[list[int]]], width: int) -> list[int]:
    """Per firing of a dot product: sum of xs * ys modulo 2**width."""
    mask = (1 << width) - 1
    return [sum(x * y for x, y in zip(xs, ys)) & mask
            for xs, ys in zip(stimulus["xs"], stimulus["ys"])]
