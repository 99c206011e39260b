"""Pre-synthesis resource estimates from the lowering plans.

The estimator prices exactly what :mod:`patflow.rtl` will instantiate:

* one DSP (multiplier) per ``mul`` operator instance in a node's datapath;
  the plan counts its operators over the netlists the RTL renders wire by
  wire, where any constant subexpression is already a literal with no
  operator and no DSP,
* register bits for pipeline stages, register-flavored FIFOs, fold
  accumulators and per-node phase counters,
* memory bits for FIFOs deeper than
  :data:`patflow.lowering.REGISTER_FIFO_MAX` tokens,
* one controller per compute node plus one per FIFO edge.

LUT/ALM usage and achievable clock frequency depend on the target device
and synthesis flow and are deliberately not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

from .graphs import Graph
from .lowering import counter_bits, lower_edges

__all__ = ["ResourceReport", "estimate_resources", "report_to_json", "render_report"]

NOT_MODELED = ("lut", "alm", "fmax")


@dataclass(frozen=True)
class ResourceReport:
    """Totals plus the per-node / per-edge breakdown they came from."""

    dsp_count: int
    register_bits: int
    memory_bits: int
    controller_count: int
    per_node: dict[str, dict]
    per_edge: dict[str, dict]
    not_modeled: tuple[str, ...] = NOT_MODELED


def estimate_resources(
    g: Graph, capacities: dict[str, int] | None = None
) -> ResourceReport:
    """Price the graph; pass measured FIFO peaks as ``capacities`` to let
    storage reflect an actual schedule rather than the per-firing default."""
    dsp = 0
    register_bits = 0
    memory_bits = 0
    controllers = 0
    per_node: dict[str, dict] = {}
    per_edge: dict[str, dict] = {}

    plans = g.prepared.plans
    for node in g.computes:
        plan = plans[node.name]
        node_regs = counter_bits(node.length)
        if plan.accumulator_width:
            node_regs += plan.accumulator_width
        muls = plan.op_counts.get("mul", 0)
        dsp += muls
        register_bits += node_regs
        controllers += 1
        per_node[node.name] = {
            "mode": plan.mode,
            "lanes": plan.lanes,
            "ops": dict(plan.op_counts),
            "dsp": muls,
            "register_bits": node_regs,
        }

    for low in lower_edges(g, capacities).values():
        entry = {
            "kind": low.kind,
            "capacity": low.capacity,
            "width": low.width,
            "bits": low.storage_bits,
        }
        if low.kind == "fifo":
            entry["flavor"] = low.flavor
            controllers += 1
            if low.flavor == "memory":
                memory_bits += low.storage_bits
            else:
                register_bits += low.storage_bits
        elif low.kind == "pipeline":
            register_bits += low.storage_bits
        per_edge[low.edge.id] = entry

    return ResourceReport(
        dsp_count=dsp,
        register_bits=register_bits,
        memory_bits=memory_bits,
        controller_count=controllers,
        per_node=per_node,
        per_edge=per_edge,
    )


def report_to_json(r: ResourceReport) -> dict:
    """JSON-ready view of a resource report."""
    return {
        "dsp_count": r.dsp_count,
        "register_bits": r.register_bits,
        "memory_bits": r.memory_bits,
        "controller_count": r.controller_count,
        "per_node": r.per_node,
        "per_edge": r.per_edge,
        "not_modeled": list(r.not_modeled),
    }


def render_report(r: ResourceReport) -> str:
    """Fixed-width text table of the estimate."""
    out = StringIO()
    out.write("node          mode         lanes  dsp  reg bits  ops\n")
    for name, info in r.per_node.items():
        ops = " ".join(f"{k}={v}" for k, v in sorted(info["ops"].items()))
        out.write(
            f"{name:<13} {info['mode']:<12} {info['lanes']:>5}  "
            f"{info['dsp']:>3}  {info['register_bits']:>8}  {ops}\n"
        )
    out.write("\nedge                      kind           capacity  bits\n")
    for eid, info in r.per_edge.items():
        kind = info["kind"]
        if kind == "fifo":
            kind = f"fifo/{info['flavor']}"
        out.write(f"{eid:<25} {kind:<14} {info['capacity']:>8}  {info['bits']}\n")
    out.write(
        f"\ntotals: dsp={r.dsp_count} register_bits={r.register_bits} "
        f"memory_bits={r.memory_bits} controllers={r.controller_count}\n"
    )
    out.write(f"not modeled: {', '.join(r.not_modeled)}\n")
    return out.getvalue()
