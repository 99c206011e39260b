"""Lower a validated graph to structural RTL.

Hardware shape
--------------
* ``<node>_ctrl``: the firing state machine.  A phase counter holds
  0..LEN-1 while firing and LEN when idle; a firing starts when idle,
  ``run`` is high and every input gate reports ready.  Firings never stall
  and may run back to back.
* ``<node>_datapath``: pure per-phase logic.  Elementwise bodies become
  parallel lanes, folds become a chain of operator instances ending in an
  accumulator register, and single-phase bodies unroll completely.  Every
  primitive operator application is one named wire, made by the same
  :func:`~patflow.lowering.unroll` the estimator counts with.
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
"""

from __future__ import annotations

import re

from ..errors import NameCollision, UnsupportedExpr
from ..graphs import Graph, NodeKind, NodeSpec
from ..lowering import (
    DatapathPlan,
    EdgeLowering,
    apply_lambda,
    counter_bits,
    lower_edges,
    unroll,
)
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


def _table_mux(sel: RExpr, values: list[RExpr], default: RExpr) -> RExpr:
    out = default
    for j in reversed(range(len(values))):
        out = RMux(RBin("==", sel, RLit(j)), values[j], out)
    return out


# ---------------------------------------------------------------------------
# Expression materialization (one wire per operator application)


class _Builder:
    """The RTL ``emit`` of :func:`~patflow.lowering.unroll`: one named wire
    per operator instance."""

    def __init__(self, module: RtlModule, width: int, prefix: str):
        self.m = module
        self.width = width
        self.prefix = prefix
        self.count = 0

    def wire(self, expr: RExpr) -> RRef:
        name = f"{self.prefix}_w{self.count}"
        self.count += 1
        self.m.net(name, self.width)
        self.m.assigns.append(Assign(name, expr))
        return RRef(name)

    def lit(self, value: int) -> RLit:
        return RLit(value & ((1 << self.width) - 1), self.width)

    def prim(self, op: str, a: RExpr, b: RExpr) -> RRef:
        if op == "add":
            e: RExpr = RBin("+", a, b)
        elif op == "sub":
            e = RBin("-", a, b)
        elif op == "mul":
            e = RBin("*", a, b)
        elif op == "min":
            e = RMux(RBin("<", a, b), a, b)
        elif op == "max":
            e = RMux(RBin("<", a, b), b, a)
        elif op == "compare":
            e = RMux(RBin("<", a, b), RLit(1, self.width), RLit(0, self.width))
        else:  # pragma: no cover - parser restricts the op set
            raise UnsupportedExpr(f"no hardware mapping for '{op}'")
        return self.wire(e)


# ---------------------------------------------------------------------------
# Per-node modules


def _ctrl_module(mod_name: str, node: NodeSpec) -> RtlModule:
    length = node.length
    pb = counter_bits(length)
    m = RtlModule(
        mod_name,
        comment=f"firing controller for '{node.name}' ({length} phase(s))",
    )
    m.port("clk", 1, "input")
    m.port("rst", 1, "input")
    m.port("run", 1, "input")
    m.port("ready", 1, "input")
    m.port("firing", 1, "output")
    m.port("phase", pb, "output")
    m.params += [Param("LEN", length), Param("IDLE", length)]
    m.regs.append(RegDecl("phase_q", pb))
    m.net("idle_w", 1)
    m.net("start", 1)
    idle = RRef("idle_w")
    start = RRef("start")
    m.assigns += [
        Assign("idle_w", RBin("==", RRef("phase_q"), RRef("IDLE"))),
        Assign("start", RBin("&", RBin("&", idle, RRef("ready")), RRef("run"))),
        Assign("firing", RBin("|", start, RNot(idle))),
        Assign("phase", RMux(start, RLit(0, pb), RRef("phase_q"))),
    ]
    after_start = RLit(1 if length > 1 else length, pb)
    m.always.append(
        AlwaysFF(
            (
                SIf(
                    RRef("rst"),
                    (SAssign(RRef("phase_q"), RRef("IDLE")),),
                    (
                        SIf(
                            start,
                            (SAssign(RRef("phase_q"), after_start),),
                            (
                                SIf(
                                    RNot(idle),
                                    (
                                        SAssign(
                                            RRef("phase_q"),
                                            RMux(
                                                RBin(
                                                    "==",
                                                    RRef("phase_q"),
                                                    RLit(length - 1, pb),
                                                ),
                                                RRef("IDLE"),
                                                RBin("+", RRef("phase_q"), RLit(1)),
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
    return m


def _word(bus: str, k: int, width: int) -> RSlice:
    return RSlice(bus, (k + 1) * width - 1, k * width)


def _concat_words(words: list[RExpr]) -> RExpr:
    return RConcat(tuple(reversed(words)))


def _datapath_module(mod_name: str, node: NodeSpec, plan: DatapathPlan) -> RtlModule:
    width = node.width
    pb = counter_bits(node.length)
    m = RtlModule(
        mod_name,
        comment=f"datapath for '{node.name}' ({plan.mode}, {plan.lanes} lane(s))",
    )
    m.port("clk", 1, "input")
    m.port("rst", 1, "input")
    m.port("firing", 1, "input")
    m.port("phase", pb, "input")
    for i, p in enumerate(node.patterns.inputs):
        m.port(f"in{i}", p.value * width, "input")
    for k, p in enumerate(node.patterns.outputs):
        m.port(f"out{k}", p.value * width, "output")

    if plan.mode == "fold":
        _fold_datapath(m, node, plan, width)
    elif plan.mode == "elementwise":
        for k, scalar in enumerate(plan.scalar_exprs):
            words = []
            for lane in range(plan.lanes):
                b = _Builder(m, width, f"o{k}_l{lane}")
                inputs = [
                    _word(f"in{i}", lane, width)
                    for i in range(len(node.patterns.inputs))
                ]
                words.append(unroll(scalar, {}, inputs, b))
            m.assigns.append(Assign(f"out{k}", _concat_words(words)))
    else:
        b = _Builder(m, width, "g")
        inputs = [
            [_word(f"in{i}", w, width) for w in range(p.total)]
            for i, p in enumerate(node.patterns.inputs)
        ]
        result = unroll(node.body, {}, inputs, b)
        values = result if len(node.patterns.outputs) > 1 else [result]
        for k, val in enumerate(values):
            words = val if isinstance(val, list) else [val]
            m.assigns.append(Assign(f"out{k}", _concat_words(words)))
    return m


def _fold_datapath(m: RtlModule, node: NodeSpec, plan: DatapathPlan, width: int) -> None:
    lanes = plan.lanes
    fn = plan.fold_fn
    tokens = [_word(f"in{plan.fold_input}", k, width) for k in range(lanes)]
    m.regs.append(RegDecl("acc_q", width))
    at_first = RBin("==", RRef("phase"), RLit(0))
    b = _Builder(m, width, "f")
    if plan.fold_init is not None:
        m.net("carry", width)
        seed = b.lit(plan.fold_init)
        m.assigns.append(Assign("carry", RMux(at_first, seed, RRef("acc_q"))))
        acc: RExpr = RRef("carry")
        for tok in tokens:
            acc = apply_lambda(fn, [acc, tok], {}, [], b)
    else:
        # No seed: in the first phase the leading operator is bypassed and
        # the first token starts the chain.
        first_op = apply_lambda(fn, [RRef("acc_q"), tokens[0]], {}, [], b)
        m.net("stage0", width)
        m.assigns.append(Assign("stage0", RMux(at_first, tokens[0], first_op)))
        acc = RRef("stage0")
        for tok in tokens[1:]:
            acc = apply_lambda(fn, [acc, tok], {}, [], b)
    m.net("result", width)
    m.assigns.append(Assign("result", acc))
    m.assigns.append(Assign("out0", RRef("result")))
    m.always.append(
        AlwaysFF(
            (
                SIf(
                    RRef("rst"),
                    (SAssign(RRef("acc_q"), RLit(0, width)),),
                    (
                        SIf(
                            RRef("firing"),
                            (SAssign(RRef("acc_q"), RRef("result")),),
                        ),
                    ),
                ),
            )
        )
    )


# ---------------------------------------------------------------------------
# Per-edge modules


def _fifo_module(mod_name: str, low: EdgeLowering, write_through: bool) -> RtlModule:
    e = low.edge
    width = low.width
    depth = low.capacity
    n = e.pp.value
    mm = e.cp.value
    ppb = counter_bits(len(e.pp))
    cpb = counter_bits(len(e.cp))
    ow = counter_bits(depth)
    m = RtlModule(
        mod_name,
        comment=(
            f"{low.flavor} fifo for edge '{e.id}' "
            f"(depth {depth}, {'write-through' if write_through else 'registered input'})"
        ),
    )
    m.port("clk", 1, "input")
    m.port("rst", 1, "input")
    m.port("wr_en", 1, "input")
    m.port("wr_phase", ppb, "input")
    m.port("din", n * width, "input")
    m.port("rd_en", 1, "input")
    m.port("rd_phase", cpb, "input")
    m.port("dout", mm * width, "output")
    m.port("occupancy", ow, "output")
    m.params += [
        Param("DEPTH", depth),
        Param("WRITE_THROUGH", 1 if write_through else 0),
    ]
    m.regs.append(RegDecl("mem", width, depth))
    m.regs += [RegDecl("wr_q", ow), RegDecl("rd_q", ow), RegDecl("occ_q", ow)]
    m.net("push", ow)
    m.net("pop", ow)
    push_table = _table_mux(
        RRef("wr_phase"),
        [RLit(v, ow) for v in e.pp.phases],
        RLit(0, ow),
    )
    pop_table = _table_mux(
        RRef("rd_phase"),
        [RLit(v, ow) for v in e.cp.phases],
        RLit(0, ow),
    )
    m.assigns += [
        Assign("push", RMux(RRef("wr_en"), push_table, RLit(0, ow))),
        Assign("pop", RMux(RRef("rd_en"), pop_table, RLit(0, ow))),
        Assign("occupancy", RRef("occ_q")),
    ]
    words: list[RExpr] = []
    for k in range(mm):
        stored: RExpr = RIndex(
            "mem", RBin("%", RBin("+", RRef("rd_q"), RLit(k)), RRef("DEPTH"))
        )
        if write_through:
            fresh: RExpr = RLit(0, width)
            for j in range(max(0, k - n + 1), k + 1):
                fresh = RMux(
                    RBin("==", RRef("occ_q"), RLit(j)),
                    _word("din", k - j, width),
                    fresh,
                )
            word: RExpr = RMux(RBin("<", RLit(k), RRef("occ_q")), stored, fresh)
        else:
            word = stored
        name = m.net(f"dout_w{k}", width)
        m.assigns.append(Assign(name, word))
        words.append(RRef(name))
    m.assigns.append(Assign("dout", _concat_words(words)))
    body: list = []
    for k in range(n):
        body.append(
            SIf(
                RBin(">", RRef("push"), RLit(k)),
                (
                    SAssign(
                        RIndex(
                            "mem",
                            RBin("%", RBin("+", RRef("wr_q"), RLit(k)), RRef("DEPTH")),
                        ),
                        _word("din", k, width),
                    ),
                ),
            )
        )
    body += [
        SAssign(RRef("wr_q"), RBin("%", RBin("+", RRef("wr_q"), RRef("push")), RRef("DEPTH"))),
        SAssign(RRef("rd_q"), RBin("%", RBin("+", RRef("rd_q"), RRef("pop")), RRef("DEPTH"))),
        SAssign(RRef("occ_q"), RBin("-", RBin("+", RRef("occ_q"), RRef("push")), RRef("pop"))),
    ]
    m.always.append(
        AlwaysFF(
            (
                SIf(
                    RRef("rst"),
                    (
                        SAssign(RRef("wr_q"), RLit(0, ow)),
                        SAssign(RRef("rd_q"), RLit(0, ow)),
                        SAssign(RRef("occ_q"), RLit(0, ow)),
                    ),
                    tuple(body),
                ),
            )
        )
    )
    return m


def _fifo_ctrl_module(mod_name: str, low: EdgeLowering) -> RtlModule:
    e = low.edge
    gate = low.gate
    ppb = counter_bits(len(e.pp))
    ow = counter_bits(low.capacity)
    m = RtlModule(
        mod_name,
        comment=f"firing threshold table for edge '{e.id}'",
    )
    m.port("occupancy", ow, "input")
    m.port("prod_firing", 1, "input")
    m.port("prod_phase", ppb, "input")
    m.port("ready", 1, "output")
    for j, v in enumerate(gate.per_phase):
        m.params.append(Param(f"THRESH_P{j}", v))
    m.params.append(Param("THRESH_IDLE", gate.idle))
    table = _table_mux(
        RRef("prod_phase"),
        [RRef(f"THRESH_P{j}") for j in range(len(gate.per_phase))],
        RRef("THRESH_IDLE"),
    )
    m.net("need", ow)
    m.assigns += [
        Assign("need", RMux(RRef("prod_firing"), table, RRef("THRESH_IDLE"))),
        Assign("ready", RBin(">=", RRef("occupancy"), RRef("need"))),
    ]
    return m


def _pipe_module(mod_name: str, low: EdgeLowering) -> RtlModule:
    e = low.edge
    width = low.width
    n = e.pp.value
    ppb = counter_bits(len(e.pp))
    m = RtlModule(
        mod_name,
        comment=f"pipeline register for edge '{e.id}' ({n} token(s) per group)",
    )
    m.port("clk", 1, "input")
    m.port("rst", 1, "input")
    m.port("stb", 1, "input")
    m.port("phase", ppb, "input")
    m.port("din", n * width, "input")
    m.port("dout", n * width, "output")
    m.port("valid", 1, "output")
    m.regs += [RegDecl("data_q", n * width), RegDecl("valid_q", 1)]
    m.net("wr", 1)
    m.assigns += [
        Assign("wr", RBin("&", RRef("stb"), _nz_mux(RRef("phase"), e.pp))),
        Assign("dout", RRef("data_q")),
        Assign("valid", RRef("valid_q")),
    ]
    m.always.append(
        AlwaysFF(
            (
                SIf(
                    RRef("rst"),
                    (SAssign(RRef("valid_q"), RLit(0, 1)),),
                    (
                        SIf(
                            RRef("wr"),
                            (
                                SAssign(RRef("data_q"), RRef("din")),
                                SAssign(RRef("valid_q"), RLit(1, 1)),
                            ),
                        ),
                    ),
                ),
            )
        )
    )
    return m


# ---------------------------------------------------------------------------
# Top-level assembly


def _nz_mux(phase: RExpr, pattern) -> RExpr:
    return _table_mux(
        phase,
        [RLit(1 if v else 0, 1) for v in pattern.phases],
        RLit(0, 1),
    )


def lower_design(g: Graph, capacities: dict[str, int] | None = None) -> RtlDesign:
    """Build the full RTL design for a validated graph.

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

    def _add(module: RtlModule, role: str, subject: str) -> RtlModule:
        if module.name in design.modules:
            raise NameCollision(f"duplicate RTL module name '{module.name}'")
        design.add(module)
        roles.append(
            {"file": f"{module.name}.v", "module": module.name, "role": role,
             "subject": subject}
        )
        return module

    order = g.topo_order()
    for name in order:
        node = g.nodes[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        base = node_rtl[name]
        _add(_ctrl_module(f"{base}_ctrl", node), "ctrl", name)
        _add(_datapath_module(f"{base}_datapath", node, plans[name]), "datapath", name)

    for e in g.edges:
        low = lows[e.id]
        base = edge_rtl[e.id]
        if low.kind == "fifo":
            write_through = g.nodes[e.producer].kind is NodeKind.SOURCE
            _add(_fifo_module(f"{base}_fifo", low, write_through), "fifo", e.id)
            _add(_fifo_ctrl_module(f"{base}_fifo_ctrl", low), "fifo_ctrl", e.id)
        elif low.kind == "pipeline":
            _add(_pipe_module(f"{base}_pipe", low), "pipe", e.id)

    top = _top_module(g, order, design_name, lows, node_rtl, edge_rtl)
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
) -> RtlModule:
    top = RtlModule(
        f"{design_name}_top",
        comment=f"top level for '{g.name or 'design'}'",
    )
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
        return RRef(f"{base}_firing"), RRef(f"{base}_phase"), data

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
                RRef(f"{ebase}_ready") if low.kind == "fifo" else RRef(f"{ebase}_valid")
            )
        ready: RExpr = RLit(1, 1)
        for t in terms:
            ready = t if ready == RLit(1, 1) else RBin("&", ready, t)
        top.assigns.append(Assign(f"{base}_ready", ready))
        top.instances.append(
            Instance(
                f"{base}_ctrl",
                f"u_{base}_ctrl",
                (
                    ("clk", RRef("clk")),
                    ("rst", RRef("rst")),
                    ("run", RRef("run")),
                    ("ready", RRef(f"{base}_ready")),
                    ("firing", RRef(f"{base}_firing")),
                    ("phase", RRef(f"{base}_phase")),
                ),
            )
        )
        conns: list[tuple[str, RExpr]] = [
            ("clk", RRef("clk")),
            ("rst", RRef("rst")),
            ("firing", RRef(f"{base}_firing")),
            ("phase", RRef(f"{base}_phase")),
        ]
        for i, e in enumerate(g.prepared.ins[name]):
            conns.append((f"in{i}", RRef(f"{edge_rtl[e.id]}_dout")))
        for k in range(len(node.patterns.outputs)):
            conns.append((f"out{k}", RRef(f"{base}_out{k}")))
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
                Assign(f"{sbase}_p{e.consumer_port}_data", RRef(p_data))
            )
            top.assigns.append(
                Assign(
                    f"{sbase}_p{e.consumer_port}_valid",
                    RBin("&", p_firing, _nz_mux(p_phase, e.pp)),
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
                        ("clk", RRef("clk")),
                        ("rst", RRef("rst")),
                        ("wr_en", p_firing),
                        ("wr_phase", p_phase),
                        ("din", RRef(p_data)),
                        ("rd_en", RRef(f"{cbase}_firing")),
                        ("rd_phase", RRef(f"{cbase}_phase")),
                        ("dout", RRef(f"{ebase}_dout")),
                        ("occupancy", RRef(f"{ebase}_occ")),
                    ),
                )
            )
            top.instances.append(
                Instance(
                    f"{ebase}_fifo_ctrl",
                    f"u_{ebase}_fifo_ctrl",
                    (
                        ("occupancy", RRef(f"{ebase}_occ")),
                        ("prod_firing", p_firing),
                        ("prod_phase", p_phase),
                        ("ready", RRef(f"{ebase}_ready")),
                    ),
                )
            )
        else:
            top.instances.append(
                Instance(
                    f"{ebase}_pipe",
                    f"u_{ebase}_pipe",
                    (
                        ("clk", RRef("clk")),
                        ("rst", RRef("rst")),
                        ("stb", p_firing),
                        ("phase", p_phase),
                        ("din", RRef(p_data)),
                        ("dout", RRef(f"{ebase}_dout")),
                        ("valid", RRef(f"{ebase}_valid")),
                    ),
                )
            )
    return top
