"""Lower a validated graph to structural RTL.

Hardware shape
--------------
* ``<node>_ctrl``: the firing state machine.  A phase counter holds
  0..LEN-1 while firing and LEN when idle; a firing starts when idle,
  ``run`` is high and every input gate reports ready.  Firings never stall
  and may run back to back.
* ``<node>_datapath``: pure per-phase logic.  Elementwise bodies become
  parallel lanes, folds become a chain of operator instances ending in an
  accumulator register (which holds through a phase that reads no token),
  and single-phase bodies unroll completely.  Each operator instance of the
  plan's netlists (:class:`~patflow.lowering.Netlist`), which the estimator
  counts, is one named wire.
* ``<edge>_fifo`` / ``<edge>_fifo_ctrl``: token storage plus the firing
  threshold table for the edge.  The controller compares the registered
  (cycle-start) occupancy against the threshold selected by the producer's
  live phase, falling back to the idle entry.  Source-fed FIFOs are
  write-through: tokens supplied in a cycle may be consumed in that cycle.
* ``<edge>_pipe``: a register stage for compute-fed edges whose patterns
  match on both sides; its valid flag doubles as the consumer's gate.
* ``<design>_top``: instances of all of the above.  Sources appear as
  ``<src>_firing``/``<src>_phase``/``<src>_p<k>_data`` inputs driven by the
  environment; each sink input port becomes ``data``/``valid`` outputs fed
  straight from the producing datapath.

Shared bodies
-------------
Every module but the top is keyed by a structural signature: its role plus
each value its body is built from (a controller's length; a pipe's pattern
and width; a FIFO's capacity, width, patterns and write-through; a
threshold table's capacity, producer length and gate table; a datapath's
width, patterns and plan).  The first module of a signature builds the
body and freezes it; later ones get the same :class:`RtlBody` under their
own name and comment.  Every body and the top also share one
:class:`~patflow.rtl.ir.RRef` per name and one :class:`~patflow.rtl.ir.RLit`
per value and width.  These tables live for one :func:`lower_design` call.
"""

from __future__ import annotations

import re

from ..errors import NameCollision
from ..graphs import Graph, NodeKind, NodeSpec
from ..lowering import DatapathPlan, EdgeLowering, Netlist, Wire, counter_bits, lower_edges
from .ir import (
    AlwaysFF,
    Assign,
    Instance,
    Net,
    Param,
    Port,
    RBin,
    RConcat,
    RExpr,
    RIndex,
    RLit,
    RMux,
    RNot,
    RRef,
    RSlice,
    RegDecl,
    RtlBody,
    RtlDesign,
    RtlModule,
    SAssign,
    SIf,
)

__all__ = ["lower_design"]

_RESERVED = ("clk", "rst", "run")


def _sanitize(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


class _NameTable:
    def __init__(self):
        self.taken: dict[str, str] = {s: "<reserved>" for s in _RESERVED}

    def claim(self, original: str) -> str:
        s = _sanitize(original)
        owner = self.taken.get(s)
        if owner is not None and owner != original:
            raise NameCollision(
                f"'{original}' and '{owner}' both need the RTL name '{s}'"
            )
        self.taken[s] = original
        return s


class _Leaves(dict):
    """The leaves of one design, each built on first use: ``leaf[name]``
    is the :class:`RRef` of a name, ``leaf[value, width]`` the
    :class:`RLit` of a value (``width`` None for a plain integer)."""

    __slots__ = ()

    def __missing__(self, key):
        node = self[key] = RRef(key) if key.__class__ is str else RLit(*key)
        return node


def _table_mux(leaf: _Leaves, sel: RExpr, values: list[RExpr], default: RExpr) -> RExpr:
    out = default
    for j in reversed(range(len(values))):
        out = RMux(RBin("==", sel, leaf[j, None]), values[j], out)
    return out


# ---------------------------------------------------------------------------
# Netlist rendering (one wire per operator instance)

# The operator each primitive becomes, given its operands and the width.
_PRIMS = {
    "add": lambda leaf, a, b, w: RBin("+", a, b),
    "sub": lambda leaf, a, b, w: RBin("-", a, b),
    "mul": lambda leaf, a, b, w: RBin("*", a, b),
    "min": lambda leaf, a, b, w: RMux(RBin("<", a, b), a, b),
    "max": lambda leaf, a, b, w: RMux(RBin("<", a, b), b, a),
    "compare": lambda leaf, a, b, w: RMux(RBin("<", a, b), leaf[1, w], leaf[0, w]),
}


def _render(body: RtlBody, leaf: _Leaves, net: Netlist, prefix: str, width: int,
            start: int = 0) -> list:
    """Add one wire per operator instance of ``net`` to ``body``, named
    ``<prefix>_w<i>`` counting from ``start``; return the output words per
    port."""
    wires: list[RExpr] = []

    def operand(x) -> RExpr:
        if isinstance(x, Wire):
            return wires[x.index]
        if isinstance(x, int):
            return leaf[x, width]
        if isinstance(x, str):
            return leaf[x]
        port, k = x
        return _word(f"in{port}", k, width)

    for i, (op, a, b) in enumerate(net.ops, start):
        name = body.net(f"{prefix}_w{i}", width)
        body.assigns.append(Assign(name, _PRIMS[op](leaf, operand(a), operand(b), width)))
        wires.append(leaf[name])
    return [[operand(x) for x in words] for words in net.outs]


# ---------------------------------------------------------------------------
# Per-node modules


def _ctrl_body(body: RtlBody, leaf: _Leaves, length: int) -> None:
    pb = counter_bits(length)
    body.port("clk", 1, "input")
    body.port("rst", 1, "input")
    body.port("run", 1, "input")
    body.port("ready", 1, "input")
    body.port("firing", 1, "output")
    body.port("phase", pb, "output")
    body.params += [Param("LEN", length), Param("IDLE", length)]
    body.regs.append(RegDecl("phase_q", pb))
    body.net("idle_w", 1)
    body.net("start", 1)
    idle = leaf["idle_w"]
    start = leaf["start"]
    body.assigns += [
        Assign("idle_w", RBin("==", leaf["phase_q"], leaf["IDLE"])),
        Assign("start", RBin("&", RBin("&", idle, leaf["ready"]), leaf["run"])),
        Assign("firing", RBin("|", start, RNot(idle))),
        Assign("phase", RMux(start, leaf[0, pb], leaf["phase_q"])),
    ]
    after_start = leaf[1 if length > 1 else length, pb]
    body.always.append(
        AlwaysFF(
            (
                SIf(
                    leaf["rst"],
                    (SAssign(leaf["phase_q"], leaf["IDLE"]),),
                    (
                        SIf(
                            start,
                            (SAssign(leaf["phase_q"], after_start),),
                            (
                                SIf(
                                    RNot(idle),
                                    (
                                        SAssign(
                                            leaf["phase_q"],
                                            RMux(
                                                RBin(
                                                    "==",
                                                    leaf["phase_q"],
                                                    leaf[length - 1, pb],
                                                ),
                                                leaf["IDLE"],
                                                RBin("+", leaf["phase_q"], leaf[1, None]),
                                            ),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            )
        )
    )


def _word(bus: str, k: int, width: int) -> RSlice:
    return RSlice(bus, (k + 1) * width - 1, k * width)


def _concat_words(words: list[RExpr]) -> RExpr:
    return RConcat(tuple(reversed(words)))


def _datapath_body(body: RtlBody, leaf: _Leaves, node: NodeSpec, plan: DatapathPlan) -> None:
    width = node.width
    pb = counter_bits(node.length)
    body.port("clk", 1, "input")
    body.port("rst", 1, "input")
    body.port("firing", 1, "input")
    body.port("phase", pb, "input")
    for i, p in enumerate(node.patterns.inputs):
        body.port(f"in{i}", p.value * width, "input")
    for k, p in enumerate(node.patterns.outputs):
        body.port(f"out{k}", p.value * width, "output")

    if plan.mode == "fold":
        _fold_datapath(body, leaf, node, plan, width)
    elif plan.mode == "elementwise":
        for k in range(len(node.patterns.outputs)):
            words = [
                _render(body, leaf, plan.netlists[k * plan.lanes + lane], f"o{k}_l{lane}",
                        width)[0][0]
                for lane in range(plan.lanes)
            ]
            body.assigns.append(Assign(f"out{k}", _concat_words(words)))
    else:
        (net,) = plan.netlists
        for k, words in enumerate(_render(body, leaf, net, "g", width)):
            body.assigns.append(Assign(f"out{k}", _concat_words(words)))


def _fold_datapath(body: RtlBody, leaf: _Leaves, node: NodeSpec, plan: DatapathPlan,
                   width: int) -> None:
    cp = node.patterns.inputs[plan.fold_input]
    first_phase = next(j for j, v in enumerate(cp.phases) if v)
    at_first = RBin("==", leaf["phase"], leaf[first_phase, None])
    body.regs.append(RegDecl("acc_q", width))
    start = 0
    if plan.fold_init is not None:
        body.net("carry", width)
        seed = leaf[plan.fold_init, width]
        body.assigns.append(Assign("carry", RMux(at_first, seed, leaf["acc_q"])))
    else:
        # No seed: in the first phase that reads tokens the leading operator
        # is bypassed and the first token starts the chain.
        first = plan.netlists[0]
        first_op = _render(body, leaf, first, "f", width)[0][0]
        tok0 = _word(f"in{plan.fold_input}", 0, width)
        body.net("stage0", width)
        body.assigns.append(Assign("stage0", RMux(at_first, tok0, first_op)))
        start = len(first.ops)
    acc = _render(body, leaf, plan.netlists[-1], "f", width, start)[0][0]
    if 0 in cp.phases:
        # The input bus still shows words in a phase that reads none; the
        # accumulator holds through such a phase.
        acc = RMux(_nz_mux(leaf, leaf["phase"], cp), acc, leaf["acc_q"])
    body.net("result", width)
    body.assigns.append(Assign("result", acc))
    body.assigns.append(Assign("out0", leaf["result"]))
    body.always.append(
        AlwaysFF(
            (
                SIf(
                    leaf["rst"],
                    (SAssign(leaf["acc_q"], leaf[0, width]),),
                    (
                        SIf(
                            leaf["firing"],
                            (SAssign(leaf["acc_q"], leaf["result"]),),
                        ),
                    ),
                ),
            )
        )
    )


# ---------------------------------------------------------------------------
# Per-edge modules


def _fifo_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering, write_through: bool) -> None:
    e = low.edge
    width = low.width
    depth = low.capacity
    n = e.pp.value
    mm = e.cp.value
    ppb = counter_bits(len(e.pp))
    cpb = counter_bits(len(e.cp))
    ow = counter_bits(depth)
    body.port("clk", 1, "input")
    body.port("rst", 1, "input")
    body.port("wr_en", 1, "input")
    body.port("wr_phase", ppb, "input")
    body.port("din", n * width, "input")
    body.port("rd_en", 1, "input")
    body.port("rd_phase", cpb, "input")
    body.port("dout", mm * width, "output")
    body.port("occupancy", ow, "output")
    body.params += [
        Param("DEPTH", depth),
        Param("WRITE_THROUGH", 1 if write_through else 0),
    ]
    body.regs.append(RegDecl("mem", width, depth))
    body.regs += [RegDecl("wr_q", ow), RegDecl("rd_q", ow), RegDecl("occ_q", ow)]
    body.net("push", ow)
    body.net("pop", ow)
    push_table = _table_mux(
        leaf, leaf["wr_phase"],
        [leaf[v, ow] for v in e.pp.phases],
        leaf[0, ow],
    )
    pop_table = _table_mux(
        leaf, leaf["rd_phase"],
        [leaf[v, ow] for v in e.cp.phases],
        leaf[0, ow],
    )
    body.assigns += [
        Assign("push", RMux(leaf["wr_en"], push_table, leaf[0, ow])),
        Assign("pop", RMux(leaf["rd_en"], pop_table, leaf[0, ow])),
        Assign("occupancy", leaf["occ_q"]),
    ]
    # Nodes never change, so one node may appear in several places.
    din = [_word("din", k, width) for k in range(n)]
    occ_is = [RBin("==", leaf["occ_q"], leaf[j, None]) for j in range(mm)]
    words: list[RExpr] = []
    for k in range(mm):
        stored: RExpr = RIndex(
            "mem", RBin("%", RBin("+", leaf["rd_q"], leaf[k, None]), leaf["DEPTH"])
        )
        if write_through:
            fresh: RExpr = leaf[0, width]
            for j in range(max(0, k - n + 1), k + 1):
                fresh = RMux(occ_is[j], din[k - j], fresh)
            word: RExpr = RMux(RBin("<", leaf[k, None], leaf["occ_q"]), stored, fresh)
        else:
            word = stored
        name = body.net(f"dout_w{k}", width)
        body.assigns.append(Assign(name, word))
        words.append(leaf[name])
    body.assigns.append(Assign("dout", _concat_words(words)))
    stmts: list = []
    for k in range(n):
        stmts.append(
            SIf(
                RBin(">", leaf["push"], leaf[k, None]),
                (
                    SAssign(
                        RIndex(
                            "mem",
                            RBin("%", RBin("+", leaf["wr_q"], leaf[k, None]), leaf["DEPTH"]),
                        ),
                        din[k],
                    ),
                ),
            )
        )
    stmts += [
        SAssign(leaf["wr_q"], RBin("%", RBin("+", leaf["wr_q"], leaf["push"]), leaf["DEPTH"])),
        SAssign(leaf["rd_q"], RBin("%", RBin("+", leaf["rd_q"], leaf["pop"]), leaf["DEPTH"])),
        SAssign(leaf["occ_q"], RBin("-", RBin("+", leaf["occ_q"], leaf["push"]), leaf["pop"])),
    ]
    body.always.append(
        AlwaysFF(
            (
                SIf(
                    leaf["rst"],
                    (
                        SAssign(leaf["wr_q"], leaf[0, ow]),
                        SAssign(leaf["rd_q"], leaf[0, ow]),
                        SAssign(leaf["occ_q"], leaf[0, ow]),
                    ),
                    tuple(stmts),
                ),
            )
        )
    )


def _fifo_ctrl_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering) -> None:
    gate = low.gate
    ppb = counter_bits(len(low.edge.pp))
    ow = counter_bits(low.capacity)
    body.port("occupancy", ow, "input")
    body.port("prod_firing", 1, "input")
    body.port("prod_phase", ppb, "input")
    body.port("ready", 1, "output")
    for j, v in enumerate(gate.per_phase):
        body.params.append(Param(f"THRESH_P{j}", v))
    body.params.append(Param("THRESH_IDLE", gate.idle))
    table = _table_mux(
        leaf, leaf["prod_phase"],
        [leaf[f"THRESH_P{j}"] for j in range(len(gate.per_phase))],
        leaf["THRESH_IDLE"],
    )
    body.net("need", ow)
    body.assigns += [
        Assign("need", RMux(leaf["prod_firing"], table, leaf["THRESH_IDLE"])),
        Assign("ready", RBin(">=", leaf["occupancy"], leaf["need"])),
    ]


def _pipe_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering) -> None:
    e = low.edge
    width = low.width
    n = e.pp.value
    ppb = counter_bits(len(e.pp))
    body.port("clk", 1, "input")
    body.port("rst", 1, "input")
    body.port("stb", 1, "input")
    body.port("phase", ppb, "input")
    body.port("din", n * width, "input")
    body.port("dout", n * width, "output")
    body.port("valid", 1, "output")
    body.regs += [RegDecl("data_q", n * width), RegDecl("valid_q", 1)]
    body.net("wr", 1)
    body.assigns += [
        Assign("wr", RBin("&", leaf["stb"], _nz_mux(leaf, leaf["phase"], e.pp))),
        Assign("dout", leaf["data_q"]),
        Assign("valid", leaf["valid_q"]),
    ]
    body.always.append(
        AlwaysFF(
            (
                SIf(
                    leaf["rst"],
                    (SAssign(leaf["valid_q"], leaf[0, 1]),),
                    (
                        SIf(
                            leaf["wr"],
                            (
                                SAssign(leaf["data_q"], leaf["din"]),
                                SAssign(leaf["valid_q"], leaf[1, 1]),
                            ),
                        ),
                    ),
                ),
            )
        )
    )


# ---------------------------------------------------------------------------
# Top-level assembly


def _nz_mux(leaf: _Leaves, phase: RExpr, pattern) -> RExpr:
    return _table_mux(
        leaf, phase,
        [leaf[1 if v else 0, 1] for v in pattern.phases],
        leaf[0, 1],
    )


def lower_design(g: Graph, capacities: dict[str, int] | None = None) -> RtlDesign:
    """Build the full RTL design for a validated graph.

    Modules whose bodies depend on the same values share one frozen
    :class:`~patflow.rtl.ir.RtlBody`, built once; they differ only in name
    and comment.

    Raises :class:`~patflow.errors.NameCollision` when two document names
    need the same RTL identifier.
    """
    names = _NameTable()
    design_name = _sanitize(g.name) if g.name else "design"
    lows = lower_edges(g, capacities)
    plans = g.prepared.plans

    node_rtl = {n: names.claim(n) for n in g.nodes}
    edge_rtl = {e.id: names.claim(e.id) for e in g.edges}

    design = RtlDesign(name=g.name or "design", top=f"{design_name}_top")
    roles: list[dict] = []
    # One body per structural signature: the role plus every value the
    # body is built from.
    bodies: dict[tuple, RtlBody] = {}
    # Every body and the top share one node per reference and literal.
    leaf = _Leaves()

    def _add(module: RtlModule, role: str, subject: str) -> None:
        if module.name in design.modules:
            raise NameCollision(f"duplicate RTL module name '{module.name}'")
        design.add(module)
        roles.append(
            {"file": f"{module.name}.v", "module": module.name, "role": role,
             "subject": subject}
        )

    def _shared(signature: tuple, name: str, comment: str, build, *args) -> RtlModule:
        """Module ``name`` with the body of ``signature``, made by
        ``build(body, leaf, *args)`` on its first use."""
        body = bodies.get(signature)
        if body is None:
            body = RtlBody()
            build(body, leaf, *args)
            bodies[signature] = body.freeze()
        return RtlModule(name, comment, body)

    order = g.topo_order()
    for name in order:
        node = g.nodes[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        base = node_rtl[name]
        length = node.length
        _add(_shared(("ctrl", length), f"{base}_ctrl",
                     f"firing controller for '{name}' ({length} phase(s))",
                     _ctrl_body, length), "ctrl", name)
        plan = plans[name]
        signature = (
            "datapath", node.width, length,
            tuple(p.phases for p in node.patterns.inputs),
            tuple(p.phases for p in node.patterns.outputs),
            plan.mode, plan.lanes, plan.netlists, plan.fold_init, plan.fold_input,
        )
        _add(_shared(signature, f"{base}_datapath",
                     f"datapath for '{name}' ({plan.mode}, {plan.lanes} lane(s))",
                     _datapath_body, node, plan), "datapath", name)

    for e in g.edges:
        low = lows[e.id]
        base = edge_rtl[e.id]
        if low.kind == "fifo":
            write_through = g.nodes[e.producer].kind is NodeKind.SOURCE
            cap = low.capacity
            signature = ("fifo", cap, low.width, e.pp.phases, e.cp.phases, write_through)
            comment = (
                f"{low.flavor} fifo for edge '{e.id}' "
                f"(depth {cap}, {'write-through' if write_through else 'registered input'})"
            )
            _add(_shared(signature, f"{base}_fifo", comment,
                         _fifo_body, low, write_through), "fifo", e.id)
            signature = ("fifo_ctrl", cap, len(e.pp), low.gate.entries)
            _add(_shared(signature, f"{base}_fifo_ctrl",
                         f"firing threshold table for edge '{e.id}'",
                         _fifo_ctrl_body, low), "fifo_ctrl", e.id)
        elif low.kind == "pipeline":
            _add(_shared(("pipe", e.pp.phases, low.width), f"{base}_pipe",
                         f"pipeline register for edge '{e.id}' "
                         f"({e.pp.value} token(s) per group)",
                         _pipe_body, low), "pipe", e.id)

    top = _top_module(g, order, design_name, lows, node_rtl, edge_rtl, leaf)
    _add(top, "top", g.name or "design")
    design.manifest = {
        "design": g.name or "design",
        "top": design.top,
        "modules": sorted(roles, key=lambda r: r["file"]),
        "edges": {
            e.id: {
                "kind": lows[e.id].kind,
                "capacity": lows[e.id].capacity,
                "flavor": lows[e.id].flavor,
            }
            for e in g.edges
        },
    }
    return design


def _top_module(
    g: Graph,
    order: list[str],
    design_name: str,
    lows: dict[str, EdgeLowering],
    node_rtl: dict[str, str],
    edge_rtl: dict[str, str],
    leaf: _Leaves,
) -> RtlModule:
    top = RtlBody()
    top.port("clk", 1, "input")
    top.port("rst", 1, "input")
    top.port("run", 1, "input")

    for name in order:
        node = g.nodes[name]
        base = node_rtl[name]
        if node.kind is NodeKind.SOURCE:
            pb = counter_bits(node.length)
            top.port(f"{base}_firing", 1, "input")
            top.port(f"{base}_phase", pb, "input")
            for k, p in enumerate(node.patterns.outputs):
                top.port(f"{base}_p{k}_data", p.value * node.width, "input")
        elif node.kind is NodeKind.SINK:
            for k, p in enumerate(node.patterns.inputs):
                top.port(f"{base}_p{k}_data", p.value * node.width, "output")
                top.port(f"{base}_p{k}_valid", 1, "output")

    # Wires
    for name in order:
        node = g.nodes[name]
        base = node_rtl[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        pb = counter_bits(node.length)
        top.net(f"{base}_firing", 1)
        top.net(f"{base}_phase", pb)
        top.net(f"{base}_ready", 1)
        for k, p in enumerate(node.patterns.outputs):
            top.net(f"{base}_out{k}", p.value * node.width)
    for e in g.edges:
        low = lows[e.id]
        base = edge_rtl[e.id]
        if low.kind == "fifo":
            top.net(f"{base}_dout", e.cp.value * low.width)
            top.net(f"{base}_occ", counter_bits(low.capacity))
            top.net(f"{base}_ready", 1)
        elif low.kind == "pipeline":
            top.net(f"{base}_dout", e.pp.value * low.width)
            top.net(f"{base}_valid", 1)

    def producer_refs(e) -> tuple[RExpr, RExpr, str]:
        node = g.nodes[e.producer]
        base = node_rtl[e.producer]
        data = (
            f"{base}_p{e.producer_port}_data"
            if node.kind is NodeKind.SOURCE
            else f"{base}_out{e.producer_port}"
        )
        return leaf[f"{base}_firing"], leaf[f"{base}_phase"], data

    # Ready conjunction per compute node
    for name in order:
        node = g.nodes[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        base = node_rtl[name]
        terms: list[RExpr] = []
        for e in g.prepared.ins[name]:
            low = lows[e.id]
            ebase = edge_rtl[e.id]
            terms.append(
                leaf[f"{ebase}_ready"] if low.kind == "fifo" else leaf[f"{ebase}_valid"]
            )
        ready: RExpr = terms[0] if terms else leaf[1, 1]
        for t in terms[1:]:
            ready = RBin("&", ready, t)
        top.assigns.append(Assign(f"{base}_ready", ready))
        top.instances.append(
            Instance(
                f"{base}_ctrl",
                f"u_{base}_ctrl",
                (
                    ("clk", leaf["clk"]),
                    ("rst", leaf["rst"]),
                    ("run", leaf["run"]),
                    ("ready", leaf[f"{base}_ready"]),
                    ("firing", leaf[f"{base}_firing"]),
                    ("phase", leaf[f"{base}_phase"]),
                ),
            )
        )
        conns: list[tuple[str, RExpr]] = [
            ("clk", leaf["clk"]),
            ("rst", leaf["rst"]),
            ("firing", leaf[f"{base}_firing"]),
            ("phase", leaf[f"{base}_phase"]),
        ]
        for i, e in enumerate(g.prepared.ins[name]):
            conns.append((f"in{i}", leaf[f"{edge_rtl[e.id]}_dout"]))
        for k in range(len(node.patterns.outputs)):
            conns.append((f"out{k}", leaf[f"{base}_out{k}"]))
        top.instances.append(
            Instance(f"{base}_datapath", f"u_{base}_datapath", tuple(conns))
        )

    # Edge instances and sink wiring
    for e in g.edges:
        low = lows[e.id]
        ebase = edge_rtl[e.id]
        p_firing, p_phase, p_data = producer_refs(e)
        if low.kind == "sink":
            sbase = node_rtl[e.consumer]
            top.assigns.append(
                Assign(f"{sbase}_p{e.consumer_port}_data", leaf[p_data])
            )
            top.assigns.append(
                Assign(
                    f"{sbase}_p{e.consumer_port}_valid",
                    RBin("&", p_firing, _nz_mux(leaf, p_phase, e.pp)),
                )
            )
            continue
        cbase = node_rtl[e.consumer]
        if low.kind == "fifo":
            top.instances.append(
                Instance(
                    f"{ebase}_fifo",
                    f"u_{ebase}_fifo",
                    (
                        ("clk", leaf["clk"]),
                        ("rst", leaf["rst"]),
                        ("wr_en", p_firing),
                        ("wr_phase", p_phase),
                        ("din", leaf[p_data]),
                        ("rd_en", leaf[f"{cbase}_firing"]),
                        ("rd_phase", leaf[f"{cbase}_phase"]),
                        ("dout", leaf[f"{ebase}_dout"]),
                        ("occupancy", leaf[f"{ebase}_occ"]),
                    ),
                )
            )
            top.instances.append(
                Instance(
                    f"{ebase}_fifo_ctrl",
                    f"u_{ebase}_fifo_ctrl",
                    (
                        ("occupancy", leaf[f"{ebase}_occ"]),
                        ("prod_firing", p_firing),
                        ("prod_phase", p_phase),
                        ("ready", leaf[f"{ebase}_ready"]),
                    ),
                )
            )
        else:
            top.instances.append(
                Instance(
                    f"{ebase}_pipe",
                    f"u_{ebase}_pipe",
                    (
                        ("clk", leaf["clk"]),
                        ("rst", leaf["rst"]),
                        ("stb", p_firing),
                        ("phase", p_phase),
                        ("din", leaf[p_data]),
                        ("dout", leaf[f"{ebase}_dout"]),
                        ("valid", leaf[f"{ebase}_valid"]),
                    ),
                )
            )
    return RtlModule(f"{design_name}_top", f"top level for '{g.name or 'design'}'", top)
