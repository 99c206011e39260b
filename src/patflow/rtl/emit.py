"""Render the RTL form to Verilog-2001 text, deterministically.

Emission is a pure function of the graph: identical inputs give
byte-identical files (LF line endings, no timestamps).  ``manifest.json``
inventories every module with its role and the edge storage decisions.
"""

from __future__ import annotations

from io import StringIO
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from ..graphs import Graph
from .ir import (
    AlwaysFF,
    Assign,
    Instance,
    RBin,
    RConcat,
    RExpr,
    RIndex,
    RLit,
    RMux,
    RNot,
    RRef,
    RSlice,
    RtlBody,
    RtlModule,
    SAssign,
    SIf,
    check_design,
)
from .lower import lower_design

__all__ = ["emit_verilog", "render_module", "write_design"]


def _r(e: RExpr) -> str:
    if isinstance(e, RRef):
        return e.name
    if isinstance(e, RLit):
        if e.width is None:
            return str(e.value)
        return f"{e.width}'d{e.value}"
    if isinstance(e, RBin):
        return f"({_r(e.left)} {e.op} {_r(e.right)})"
    if isinstance(e, RNot):
        return f"(~{_r(e.operand)})"
    if isinstance(e, RMux):
        return f"({_r(e.cond)} ? {_r(e.then)} : {_r(e.orelse)})"
    if isinstance(e, RIndex):
        return f"{e.base}[{_r(e.index)}]"
    if isinstance(e, RSlice):
        return f"{e.base}[{e.hi}:{e.lo}]"
    if isinstance(e, RConcat):
        return "{" + ", ".join(_r(p) for p in e.parts) + "}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _range(width: int) -> str:
    return "" if width == 1 else f"[{width - 1}:0] "


def _stmt(s, out: StringIO, indent: str) -> None:
    if isinstance(s, SAssign):
        out.write(f"{indent}{_r(s.target)} <= {_r(s.value)};\n")
    elif isinstance(s, SIf):
        out.write(f"{indent}if ({_r(s.cond)}) begin\n")
        for inner in s.then:
            _stmt(inner, out, indent + "  ")
        if s.orelse:
            out.write(f"{indent}end else begin\n")
            for inner in s.orelse:
                _stmt(inner, out, indent + "  ")
        out.write(f"{indent}end\n")
    else:
        raise TypeError(f"cannot render statement {type(s).__name__}")


def _head(m: RtlModule) -> str:
    """The module's comment lines and its ``module <name> (`` line."""
    lines = [f"// {line}\n" for line in m.comment.splitlines()]
    lines.append(f"module {m.name} (\n")
    return "".join(lines)


def render_module(m: RtlModule) -> str:
    """One module as Verilog text."""
    b = m.body
    out = StringIO()
    out.write(_head(m))
    decls = [
        f"  {p.direction} wire {_range(p.width)}{p.name}" for p in b.ports
    ]
    out.write(",\n".join(decls))
    out.write("\n);\n")
    for p in b.params:
        out.write(f"  localparam integer {p.name} = {p.value};\n")
    for n in b.nets:
        out.write(f"  wire {_range(n.width)}{n.name};\n")
    for r in b.regs:
        if r.depth is None:
            out.write(f"  reg {_range(r.width)}{r.name};\n")
        else:
            out.write(f"  reg {_range(r.width)}{r.name} [0:{r.depth - 1}];\n")
    for a in b.assigns:
        out.write(f"  assign {a.target} = {_r(a.value)};\n")
    for ff in b.always:
        out.write("  always @(posedge clk) begin\n")
        for s in ff.body:
            _stmt(s, out, "    ")
        out.write("  end\n")
    for inst in b.instances:
        out.write(f"  {inst.module} {inst.name} (\n")
        conns = [f"    .{port} ({_r(expr)})" for port, expr in inst.conns]
        out.write(",\n".join(conns))
        out.write("\n  );\n")
    out.write("endmodule\n")
    return out.getvalue()


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

    A body shared by several modules is rendered once; each of them gets
    its own comment and ``module`` line above that text."""
    design = lower_design(g, capacities)
    problems = check_design(design)
    if problems:  # pragma: no cover - indicates an internal lowering bug
        raise RuntimeError(
            "internal error: generated RTL failed its own consistency check: "
            + "; ".join(problems)
        )
    files: dict[str, str] = {}
    texts: dict[RtlBody, str] = {}  # rendered text below the module line
    for name, m in design.modules.items():
        text = texts.get(m.body)
        if text is None:
            full = render_module(m)
            texts[m.body] = full[len(_head(m)):]
        else:
            full = _head(m) + text
        files[f"{name}.v"] = full
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
