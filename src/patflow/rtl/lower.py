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
own name and comment.

Bodies of different signatures share their parts through one table
(:class:`_Leaves`): one :class:`~patflow.rtl.ir.RRef` per name, one
:class:`~patflow.rtl.ir.RLit` per value and width, one declaration per set
of fields, and one block per builder and the values it is built from: a
FIFO's ``dout`` words (words in and out, width, write-through) and its write
process (words in, width, occupancy width), which name ``DEPTH`` rather
than hold it; the push and pop counts; a threshold controller's ``need``
and ``ready``; a fold's accumulator process.  The top builds each node's
firing and phase references once and shares its ``clk``/``rst``
connections.  These tables live for one :func:`lower_design` call.
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

__all__ = ["lower_design", "datapath_signature", "compile_datapath"]

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
    """The shared parts of one design, each built on first use:
    ``leaf[name]`` is the :class:`RRef` of a name, ``leaf[value, width]``
    the :class:`RLit` of a value (``width`` None for a plain integer),
    ``leaf[cls, *fields]`` the declaration ``cls(*fields)`` and
    ``leaf[build, *args]`` the block ``build(leaf, *args)``."""

    __slots__ = ()

    def __missing__(self, key):
        if key.__class__ is str:
            node = RRef(key)
        elif key[0].__class__ is int:
            node = RLit(*key)
        elif key[0].__class__ is type:
            node = key[0](*key[1:])
        else:
            node = key[0](self, *key[1:])
        self[key] = node
        return node


def _ports(leaf: _Leaves, *specs: tuple) -> list[Port]:
    """The shared :class:`Port` of each ``(name, width, direction)``."""
    return [leaf[(Port, *spec)] for spec in specs]


_CLOCK = (("clk", 1, "input"), ("rst", 1, "input"))


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
        name = f"{prefix}_w{i}"
        body.nets.append(leaf[Net, name, width])
        body.assigns.append(Assign(name, _PRIMS[op](leaf, operand(a), operand(b), width)))
        wires.append(leaf[name])
    return [[operand(x) for x in words] for words in net.outs]


# ---------------------------------------------------------------------------
# Per-node modules


def _ctrl_body(body: RtlBody, leaf: _Leaves, length: int) -> None:
    pb = counter_bits(length)
    body.ports += _ports(leaf, *_CLOCK, ("run", 1, "input"), ("ready", 1, "input"),
                         ("firing", 1, "output"), ("phase", pb, "output"))
    body.params += [leaf[Param, "LEN", length], leaf[Param, "IDLE", length]]
    body.regs.append(leaf[RegDecl, "phase_q", pb])
    body.nets += [leaf[Net, "idle_w", 1], leaf[Net, "start", 1]]
    idle = leaf["idle_w"]
    start = leaf["start"]
    body.assigns += [
        Assign("idle_w", RBin("==", leaf["phase_q"], leaf["IDLE"])),
        Assign("start", RBin("&", RBin("&", idle, leaf["ready"]), leaf["run"])),
        Assign("firing", RBin("|", start, RNot(idle))),
        Assign("phase", RMux(start, leaf[0, pb], leaf["phase_q"])),
    ]
    phase_q = leaf["phase_q"]
    after_start = leaf[1 if length > 1 else length, pb]
    step = RMux(RBin("==", phase_q, leaf[length - 1, pb]), leaf["IDLE"],
                RBin("+", phase_q, leaf[1, None]))
    # if (rst) ... else if (start) ... else if (!idle) phase_q <= step.
    body.always.append(AlwaysFF((
        SIf(leaf["rst"], (SAssign(phase_q, leaf["IDLE"]),), (
            SIf(start, (SAssign(phase_q, after_start),), (
                SIf(RNot(idle), (SAssign(phase_q, step),)),
            )),
        )),
    )))


def _word(bus: str, k: int, width: int) -> RSlice:
    return RSlice(bus, (k + 1) * width - 1, k * width)


def _concat_words(words: list[RExpr]) -> RExpr:
    return RConcat(tuple(reversed(words)))


def _datapath_body(body: RtlBody, leaf: _Leaves, node: NodeSpec, plan: DatapathPlan) -> None:
    width = node.width
    pb = counter_bits(node.length)
    body.ports += _ports(leaf, *_CLOCK, ("firing", 1, "input"), ("phase", pb, "input"),
                         *((f"in{i}", p.value * width, "input")
                           for i, p in enumerate(node.patterns.inputs)),
                         *((f"out{k}", p.value * width, "output")
                           for k, p in enumerate(node.patterns.outputs)))

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
    body.regs.append(leaf[RegDecl, "acc_q", width])
    start = 0
    if plan.fold_init is not None:
        body.nets.append(leaf[Net, "carry", width])
        seed = leaf[plan.fold_init, width]
        body.assigns.append(Assign("carry", RMux(at_first, seed, leaf["acc_q"])))
    else:
        # No seed: in the first phase that reads tokens the leading operator
        # is bypassed and the first token starts the chain.
        first = plan.netlists[0]
        first_op = _render(body, leaf, first, "f", width)[0][0]
        tok0 = _word(f"in{plan.fold_input}", 0, width)
        body.nets.append(leaf[Net, "stage0", width])
        body.assigns.append(Assign("stage0", RMux(at_first, tok0, first_op)))
        start = len(first.ops)
    acc = _render(body, leaf, plan.netlists[-1], "f", width, start)[0][0]
    if 0 in cp.phases:
        # The input bus still shows words in a phase that reads none; the
        # accumulator holds through such a phase.
        acc = RMux(_nz_mux(leaf, leaf["phase"], cp), acc, leaf["acc_q"])
    body.nets.append(leaf[Net, "result", width])
    body.assigns += [Assign("result", acc), Assign("out0", leaf["result"])]
    body.always.append(leaf[_acc_always, width])


def _acc_always(leaf: _Leaves, width: int) -> AlwaysFF:
    """A fold's accumulator: reset to 0, else ``result`` while firing."""
    return AlwaysFF((
        SIf(leaf["rst"], (SAssign(leaf["acc_q"], leaf[0, width]),), (
            SIf(leaf["firing"], (SAssign(leaf["acc_q"], leaf["result"]),)),
        )),
    ))


def datapath_signature(node: NodeSpec, plan: DatapathPlan) -> tuple:
    """Every value ``node``'s datapath module is built from: nodes with equal
    signatures share one body in :func:`lower_design` and one compiled
    loop (:func:`compile_datapath`) in a graph's replay."""
    return (
        "datapath", node.width, node.length,
        tuple(p.phases for p in node.patterns.inputs),
        tuple(p.phases for p in node.patterns.outputs),
        plan.mode, plan.lanes, plan.netlists, plan.fold_init, plan.fold_input,
    )


def compile_datapath(node: NodeSpec, plan: DatapathPlan):
    """``node``'s datapath module, built afresh and not kept, compiled into
    one loop over all the steps of a replay, ``loop(firings, *ins) ->
    (outs, trace)``: ``ins`` holds an iterator per input port over the
    words its bus shows in each step, and the loop gives each output
    port's stream and a fold's ``acc_q`` after every step (else ``None``).

    The steps are decided here and kept as ``loop.phases``.  Outside a fold
    they are the phases that move tokens, run as one flat loop.  A fold
    runs every phase of each of ``firings`` firings, starting each from its
    seed (0 without one), and writes a port only in the phases its pattern
    moves a token.  Each assign is one line: ``+ - *`` masked to the node
    width, word ``k`` of ``in<p>`` as the local ``in<p>_<k>``, a mux as a
    conditional and an output port's assign as its words added to the
    port's stream.
    """
    body = RtlBody()
    _datapath_body(body, _Leaves(), node, plan)
    width, mask = node.width, (1 << node.width) - 1
    fold = plan.mode == "fold"
    phases = tuple(ph for ph, c in enumerate(node.patterns.all_patterns[0].phases)
                   if c or fold)

    def py(e: RExpr) -> str:
        if e.__class__ is RRef:
            return e.name
        if e.__class__ is RLit:
            return str(e.value)
        if e.__class__ is RSlice:
            return f"{e.base}_{e.lo // width}"
        if e.__class__ is RMux:
            return f"({py(e.then)} if {py(e.cond)} else {py(e.orelse)})"
        text = f"({py(e.left)} {e.op} {py(e.right)})"
        return f"({text} & {mask})" if e.op in ("+", "-", "*") else text

    ins = [f"in{i}" for i in range(len(node.patterns.inputs))]
    buses = [f"({''.join(f'{bus}_{k}, ' for k in range(p.value))})"
             for bus, p in zip(ins, node.patterns.inputs)]
    outs = {f"out{k}": tuple(ph for ph in phases if p.phases[ph])
            for k, p in enumerate(node.patterns.outputs)}
    lines = []
    for a in body.assigns:
        if a.target not in outs:
            lines.append(f"{a.target} = {py(a.value)}")
            continue
        words = [py(w) for w in (reversed(a.value.parts) if a.value.__class__ is RConcat
                                 else [a.value])]
        # One word is appended, which is faster than adding a 1-tuple.
        line = (f"{a.target}.append({words[0]})" if len(words) == 1 else
                f"{a.target} += ({', '.join(words)})")
        written = outs[a.target]
        lines.append(line if written == phases else f"if phase in {written}: {line}")
    head = [f"def loop(firings, {', '.join(ins)}):", *(f"{out} = []" for out in outs)]
    if not fold and all(written == phases for written in outs.values()):
        steps = f"zip({', '.join(ins)})" if len(ins) > 1 else ins[0] if ins else None
        head.append(f"for {', '.join(buses)} in {steps}:" if steps else
                    f"for _ in range(firings * {len(phases)}):")
    else:
        head += ["trace = []", "for _ in range(firings):"]
        if fold:
            head.append(f"    acc_q = {plan.fold_init or 0}")
            # A fold's register: if (rst) ... else if (firing) acc_q <= acc.
            acc = body.always[0].body[0].orelse[0].then[0].value
            lines += [f"acc_q = {py(acc)}", "trace.append(acc_q)"]
        head.append(f"    for phase, {', '.join(buses)} in zip({', '.join(['PHASES', *ins])}):")
        lines = ["    " + line for line in lines]
    tail = f"return ({''.join(out + ', ' for out in outs)}), {'trace' if fold else None}"
    namespace = {"PHASES": phases}
    exec(compile("\n    ".join([*head, *("    " + line for line in lines), tail]),
                 f"<datapath {node.name}>", "exec"), namespace)
    loop = namespace["loop"]
    loop.phases = phases
    return loop


# ---------------------------------------------------------------------------
# Per-edge modules


def _fifo_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering, write_through: bool) -> None:
    e = low.edge
    width = low.width
    depth = low.capacity
    n = e.pp.value
    mm = e.cp.value
    ow = counter_bits(depth)
    body.ports += _ports(leaf, *_CLOCK, ("wr_en", 1, "input"),
                         ("wr_phase", counter_bits(len(e.pp)), "input"),
                         ("din", n * width, "input"), ("rd_en", 1, "input"),
                         ("rd_phase", counter_bits(len(e.cp)), "input"),
                         ("dout", mm * width, "output"), ("occupancy", ow, "output"))
    body.params += [leaf[Param, "DEPTH", depth],
                    leaf[Param, "WRITE_THROUGH", 1 if write_through else 0]]
    body.regs += [leaf[RegDecl, "mem", width, depth], leaf[RegDecl, "wr_q", ow],
                  leaf[RegDecl, "rd_q", ow], leaf[RegDecl, "occ_q", ow]]
    body.nets += [leaf[Net, "push", ow], leaf[Net, "pop", ow]]
    body.assigns += [
        leaf[_count_assign, "push", "wr_en", "wr_phase", e.pp.phases, ow],
        leaf[_count_assign, "pop", "rd_en", "rd_phase", e.cp.phases, ow],
    ]
    # The words read and the write process refer to the depth by name.
    nets, assigns = leaf[_fifo_dout, mm, n, width, write_through]
    body.nets += nets
    body.assigns += assigns
    body.always.append(leaf[_fifo_always, n, width, ow])


def _count_assign(leaf: _Leaves, target: str, enable: str, phase: str,
                  counts: tuple[int, ...], ow: int) -> Assign:
    """``target``: the tokens moved in the live phase while ``enable``."""
    table = _table_mux(leaf, leaf[phase], [leaf[v, ow] for v in counts], leaf[0, ow])
    return Assign(target, RMux(leaf[enable], table, leaf[0, ow]))


def _fifo_dout(leaf: _Leaves, mm: int, n: int, width: int,
               write_through: bool) -> tuple[tuple[Net, ...], tuple[Assign, ...]]:
    """The nets and assigns of a FIFO's ``dout`` words, after the assign of
    ``occupancy``."""
    # Nodes never change, so one node may appear in several places.
    din = [_word("din", k, width) for k in range(n)]
    occ_is = [RBin("==", leaf["occ_q"], leaf[j, None]) for j in range(mm)]
    nets: list[Net] = []
    words: list[RExpr] = []
    assigns = [Assign("occupancy", leaf["occ_q"])]
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
        name = f"dout_w{k}"
        nets.append(leaf[Net, name, width])
        assigns.append(Assign(name, word))
        words.append(leaf[name])
    assigns.append(Assign("dout", _concat_words(words)))
    return tuple(nets), tuple(assigns)


def _fifo_always(leaf: _Leaves, n: int, width: int, ow: int) -> AlwaysFF:
    """A FIFO's write process: ``n`` words in, pointers and occupancy."""
    wr_q, rd_q, occ_q, push, pop, depth = (
        leaf[name] for name in ("wr_q", "rd_q", "occ_q", "push", "pop", "DEPTH"))
    writes = tuple(
        SIf(RBin(">", push, leaf[k, None]),
            (SAssign(RIndex("mem", RBin("%", RBin("+", wr_q, leaf[k, None]), depth)),
                     _word("din", k, width)),))
        for k in range(n)
    )
    return AlwaysFF((
        SIf(leaf["rst"], tuple(SAssign(q, leaf[0, ow]) for q in (wr_q, rd_q, occ_q)), (
            *writes,
            SAssign(wr_q, RBin("%", RBin("+", wr_q, push), depth)),
            SAssign(rd_q, RBin("%", RBin("+", rd_q, pop), depth)),
            SAssign(occ_q, RBin("-", RBin("+", occ_q, push), pop)),
        )),
    ))


def _fifo_ctrl_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering) -> None:
    gate = low.gate
    ow = counter_bits(low.capacity)
    body.ports += _ports(leaf, ("occupancy", ow, "input"), ("prod_firing", 1, "input"),
                         ("prod_phase", counter_bits(len(low.edge.pp)), "input"),
                         ("ready", 1, "output"))
    body.params += [leaf[Param, f"THRESH_P{j}", v] for j, v in enumerate(gate.per_phase)]
    body.params.append(leaf[Param, "THRESH_IDLE", gate.idle])
    body.nets.append(leaf[Net, "need", ow])
    body.assigns += leaf[_threshold_assigns, len(gate.per_phase)]


def _threshold_assigns(leaf: _Leaves, phases: int) -> tuple[Assign, Assign]:
    """``need``, the threshold of the producer's live phase, and ``ready``."""
    table = _table_mux(
        leaf, leaf["prod_phase"],
        [leaf[f"THRESH_P{j}"] for j in range(phases)],
        leaf["THRESH_IDLE"],
    )
    return (
        Assign("need", RMux(leaf["prod_firing"], table, leaf["THRESH_IDLE"])),
        Assign("ready", RBin(">=", leaf["occupancy"], leaf["need"])),
    )


def _pipe_body(body: RtlBody, leaf: _Leaves, low: EdgeLowering) -> None:
    e = low.edge
    width = low.width
    n = e.pp.value
    body.ports += _ports(leaf, *_CLOCK, ("stb", 1, "input"),
                         ("phase", counter_bits(len(e.pp)), "input"),
                         ("din", n * width, "input"), ("dout", n * width, "output"),
                         ("valid", 1, "output"))
    body.regs += [leaf[RegDecl, "data_q", n * width], leaf[RegDecl, "valid_q", 1]]
    body.nets.append(leaf[Net, "wr", 1])
    body.assigns += [
        Assign("wr", RBin("&", leaf["stb"], _nz_mux(leaf, leaf["phase"], e.pp))),
        Assign("dout", leaf["data_q"]),
        Assign("valid", leaf["valid_q"]),
    ]
    body.always.append(AlwaysFF((
        SIf(leaf["rst"], (SAssign(leaf["valid_q"], leaf[0, 1]),), (
            SIf(leaf["wr"], (SAssign(leaf["data_q"], leaf["din"]),
                             SAssign(leaf["valid_q"], leaf[1, 1]))),
        )),
    )))


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
        _add(_shared(datapath_signature(node, plan), f"{base}_datapath",
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
    top.ports.append(Port("clk", 1, "input"))
    top.ports.append(Port("rst", 1, "input"))
    top.ports.append(Port("run", 1, "input"))

    for name in order:
        node = g.nodes[name]
        base = node_rtl[name]
        if node.kind is NodeKind.SOURCE:
            pb = counter_bits(node.length)
            top.ports.append(Port(f"{base}_firing", 1, "input"))
            top.ports.append(Port(f"{base}_phase", pb, "input"))
            for k, p in enumerate(node.patterns.outputs):
                top.ports.append(Port(f"{base}_p{k}_data", p.value * node.width, "input"))
        elif node.kind is NodeKind.SINK:
            for k, p in enumerate(node.patterns.inputs):
                top.ports.append(Port(f"{base}_p{k}_data", p.value * node.width, "output"))
                top.ports.append(Port(f"{base}_p{k}_valid", 1, "output"))

    # Wires
    for name in order:
        node = g.nodes[name]
        base = node_rtl[name]
        if node.kind is not NodeKind.COMPUTE:
            continue
        pb = counter_bits(node.length)
        top.nets.append(Net(f"{base}_firing", 1))
        top.nets.append(Net(f"{base}_phase", pb))
        top.nets.append(Net(f"{base}_ready", 1))
        for k, p in enumerate(node.patterns.outputs):
            top.nets.append(Net(f"{base}_out{k}", p.value * node.width))
    for e in g.edges:
        low = lows[e.id]
        base = edge_rtl[e.id]
        if low.kind == "fifo":
            top.nets.append(Net(f"{base}_dout", e.cp.value * low.width))
            top.nets.append(Net(f"{base}_occ", counter_bits(low.capacity)))
            top.nets.append(Net(f"{base}_ready", 1))
        elif low.kind == "pipeline":
            top.nets.append(Net(f"{base}_dout", e.pp.value * low.width))
            top.nets.append(Net(f"{base}_valid", 1))

    # Each source's and compute's firing and phase, and the clock pairs.
    fire = {name: (leaf[f"{node_rtl[name]}_firing"], leaf[f"{node_rtl[name]}_phase"])
            for name in order if g.nodes[name].kind is not NodeKind.SINK}
    clock = (("clk", leaf["clk"]), ("rst", leaf["rst"]))

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
        firing, phase = fire[name]
        state = (("firing", firing), ("phase", phase))
        top.instances.append(
            Instance(
                f"{base}_ctrl",
                f"u_{base}_ctrl",
                (*clock, ("run", leaf["run"]), ("ready", leaf[f"{base}_ready"]), *state),
            )
        )
        conns: list[tuple[str, RExpr]] = [*clock, *state]
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
        p_firing, p_phase = fire[e.producer]
        pbase = node_rtl[e.producer]
        p_data = leaf[
            f"{pbase}_p{e.producer_port}_data"
            if g.nodes[e.producer].kind is NodeKind.SOURCE
            else f"{pbase}_out{e.producer_port}"
        ]
        if low.kind == "sink":
            sbase = node_rtl[e.consumer]
            top.assigns.append(Assign(f"{sbase}_p{e.consumer_port}_data", p_data))
            top.assigns.append(
                Assign(
                    f"{sbase}_p{e.consumer_port}_valid",
                    RBin("&", p_firing, _nz_mux(leaf, p_phase, e.pp)),
                )
            )
            continue
        if low.kind == "fifo":
            c_firing, c_phase = fire[e.consumer]
            top.instances.append(
                Instance(
                    f"{ebase}_fifo",
                    f"u_{ebase}_fifo",
                    (
                        *clock,
                        ("wr_en", p_firing),
                        ("wr_phase", p_phase),
                        ("din", p_data),
                        ("rd_en", c_firing),
                        ("rd_phase", c_phase),
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
                        *clock,
                        ("stb", p_firing),
                        ("phase", p_phase),
                        ("din", p_data),
                        ("dout", leaf[f"{ebase}_dout"]),
                        ("valid", leaf[f"{ebase}_valid"]),
                    ),
                )
            )
    return RtlModule(f"{design_name}_top", f"top level for '{g.name or 'design'}'", top)
