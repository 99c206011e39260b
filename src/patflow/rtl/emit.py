"""Render the RTL form to Verilog-2001 text, deterministically.

Emission is a pure function of the graph: identical inputs give
byte-identical files (LF line endings, no timestamps).  ``manifest.json``
inventories every module with its role and the edge storage decisions.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from ..graphs import Graph
from .ir import (
    AlwaysFF,
    Assign,
    Net,
    Param,
    Port,
    RBin,
    RConcat,
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
    design_problems,
)
from .lower import lower_design

__all__ = ["emit_verilog", "render_module", "write_design"]


# One renderer per node class.  Each returns the node's text and adds the
# names it references to ``used``.


def _ref(e: RRef, used: set[str]) -> str:
    used.add(e.name)
    return e.name


def _lit(e: RLit, used: set[str]) -> str:
    if e.width is None:
        return str(e.value)
    return f"{e.width}'d{e.value}"


def _bin(e: RBin, used: set[str]) -> str:
    a, b = e.left, e.right
    return f"({_TEXT[a.__class__](a, used)} {e.op} {_TEXT[b.__class__](b, used)})"


def _not(e: RNot, used: set[str]) -> str:
    a = e.operand
    return f"(~{_TEXT[a.__class__](a, used)})"


def _mux(e: RMux, used: set[str]) -> str:
    c, a, b = e.cond, e.then, e.orelse
    return (f"({_TEXT[c.__class__](c, used)} ? {_TEXT[a.__class__](a, used)}"
            f" : {_TEXT[b.__class__](b, used)})")


def _index(e: RIndex, used: set[str]) -> str:
    used.add(e.base)
    i = e.index
    return f"{e.base}[{_TEXT[i.__class__](i, used)}]"


def _slice(e: RSlice, used: set[str]) -> str:
    used.add(e.base)
    return f"{e.base}[{e.hi}:{e.lo}]"


def _concat(e: RConcat, used: set[str]) -> str:
    return "{" + ", ".join([_TEXT[p.__class__](p, used) for p in e.parts]) + "}"


_TEXT = {RRef: _ref, RLit: _lit, RBin: _bin, RNot: _not, RMux: _mux,
         RIndex: _index, RSlice: _slice, RConcat: _concat}


def _sassign(s: SAssign, indent: str, out: list[str], used: set[str]) -> None:
    t, v = s.target, s.value
    out.append(f"{indent}{_TEXT[t.__class__](t, used)} <= {_TEXT[v.__class__](v, used)};\n")


def _sif(s: SIf, indent: str, out: list[str], used: set[str]) -> None:
    c = s.cond
    out.append(f"{indent}if ({_TEXT[c.__class__](c, used)}) begin\n")
    inner = indent + "  "
    for x in s.then:
        _STMT[x.__class__](x, inner, out, used)
    if s.orelse:
        out.append(f"{indent}end else begin\n")
        for x in s.orelse:
            _STMT[x.__class__](x, inner, out, used)
    out.append(f"{indent}end\n")


_STMT = {SAssign: _sassign, SIf: _sif}


def _range(width: int) -> str:
    return "" if width == 1 else f"[{width - 1}:0] "


# One renderer per part of a body.  Each returns the part's text (a port's
# without its separator) and adds the names it references to ``used``.


def _port(p: Port, used: set[str]) -> str:
    return f"  {p.direction} wire {_range(p.width)}{p.name}"


def _param(p: Param, used: set[str]) -> str:
    return f"  localparam integer {p.name} = {p.value};\n"


def _net(n: Net, used: set[str]) -> str:
    return f"  wire {_range(n.width)}{n.name};\n"


def _reg(r: RegDecl, used: set[str]) -> str:
    if r.depth is None:
        return f"  reg {_range(r.width)}{r.name};\n"
    return f"  reg {_range(r.width)}{r.name} [0:{r.depth - 1}];\n"


def _assign(a: Assign, used: set[str]) -> str:
    used.add(a.target)
    v = a.value
    return f"  assign {a.target} = {_TEXT[v.__class__](v, used)};\n"


def _always(ff: AlwaysFF, used: set[str]) -> str:
    out = ["  always @(posedge clk) begin\n"]
    for s in ff.body:
        _STMT[s.__class__](s, "    ", out, used)
    out.append("  end\n")
    return "".join(out)


_PART = {Port: _port, Param: _param, Net: _net, RegDecl: _reg, Assign: _assign,
         AlwaysFF: _always}


def _walk(b: RtlBody, memo: dict[int, str | tuple[str, set[str]]]) -> tuple[str, set[str]]:
    """One walk of a body: its text below the ``module`` line, and every
    name its assigns, processes and instance connections reference.

    ``memo`` maps the identity of each part met so far to its text, and an
    assign's or process's also to the names it references, so that a part
    bodies share is rendered once.  A declaration references no names."""
    used: set[str] = set()
    texts = []
    for p in (*b.ports, *b.params, *b.nets, *b.regs):
        decl = memo.get(id(p))
        if decl is None:
            decl = memo[id(p)] = _PART[p.__class__](p, used)
        texts.append(decl)
    for p in (*b.assigns, *b.always):
        hit = memo.get(id(p))
        if hit is None:
            names: set[str] = set()
            hit = memo[id(p)] = (_PART[p.__class__](p, names), names)
        texts.append(hit[0])
        used |= hit[1]
    ports = len(b.ports)
    out = [",\n".join(texts[:ports]), "\n);\n", *texts[ports:]]
    text = _TEXT
    for inst in b.instances:
        conns = ",\n".join([f"    .{port} ({text[e.__class__](e, used)})"
                            for port, e in inst.conns])
        out.append(f"  {inst.module} {inst.name} (\n{conns}\n  );\n")
    out.append("endmodule\n")
    return "".join(out), used


def walk_bodies(design: RtlDesign) -> tuple[dict[RtlBody, str], dict[RtlBody, set[str]]]:
    """Each distinct body of ``design``, walked once: its text below the
    ``module`` line and the names it references.  One memo serves every
    body, so a part shared by bodies is rendered once per design."""
    texts: dict[RtlBody, str] = {}
    names: dict[RtlBody, set[str]] = {}
    memo: dict[int, str | tuple[str, set[str]]] = {}
    for m in design.modules.values():
        if m.body not in texts:
            texts[m.body], names[m.body] = _walk(m.body, memo)
    return texts, names


def _head(m: RtlModule) -> str:
    """The module's comment lines and its ``module <name> (`` line."""
    lines = [f"// {line}\n" for line in m.comment.splitlines()]
    lines.append(f"module {m.name} (\n")
    return "".join(lines)


def render_module(m: RtlModule) -> str:
    """One module as Verilog text."""
    return _head(m) + _walk(m.body, {})[0]


# A module and an edge of the manifest, as ``json.dumps(indent=2,
# sort_keys=True)`` writes them.
_MODULE_ENTRY = (
    '    {\n      "file": %s,\n      "module": %s,\n      "role": %s,\n'
    '      "subject": %s\n    }'
)
_EDGE_ENTRY = '    %s: {\n      "capacity": %d,\n      "flavor": %s,\n      "kind": %s\n    }'


def _manifest_json(manifest: dict) -> str:
    """``json.dumps(manifest, indent=2, sort_keys=True) + "\\n"``, written
    from the manifest's fixed layout without the pure-Python encoder that an
    indent makes :mod:`json` fall back to."""
    q = _quote
    modules = ",\n".join([
        _MODULE_ENTRY % (q(r["file"]), q(r["module"]), q(r["role"]), q(r["subject"]))
        for r in manifest["modules"]
    ])
    edges = ",\n".join([
        _EDGE_ENTRY % (q(eid), e["capacity"],
                       "null" if e["flavor"] is None else q(e["flavor"]), q(e["kind"]))
        for eid, e in sorted(manifest["edges"].items())
    ])
    edges = f"{{\n{edges}\n  }}" if edges else "{}"  # a graph may have no edges
    return (
        f'{{\n  "design": {q(manifest["design"])},\n  "edges": {edges},\n'
        f'  "modules": [\n{modules}\n  ],\n  "top": {q(manifest["top"])}\n}}\n'
    )


def emit_verilog(
    g: Graph, capacities: dict[str, int] | None = None
) -> dict[str, str]:
    """All output files for a graph: one ``.v`` per module plus
    ``manifest.json``.  Keyed by file name; values are complete file texts.

    Each distinct body is walked once, for its text and for the names the
    consistency check resolves; each module sharing it gets its own comment
    and ``module`` line above that text."""
    design = lower_design(g, capacities)
    texts, names = walk_bodies(design)
    problems = design_problems(design, names)
    if problems:
        raise RuntimeError(
            "internal error: generated RTL failed its own consistency check: "
            + "; ".join(problems)
        )
    files = {f"{name}.v": _head(m) + texts[m.body] for name, m in design.modules.items()}
    files["manifest.json"] = _manifest_json(design.manifest)
    return files


def write_design(files: dict[str, str], outdir) -> list[Path]:
    """Write emitted files under ``outdir`` (created if needed)."""
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(files):
        path = root / name
        path.write_text(files[name], newline="\n")
        written.append(path)
    return written
