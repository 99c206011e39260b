"""Structural Verilog generation for validated graphs.

The lowering mirrors :mod:`patflow.lowering` exactly: one controller and one
datapath module per compute node, a FIFO plus threshold controller per
buffered edge, a plain register stage per pipelined edge, and a top module
wiring them to source/sink ports.
"""

from .ir import (
    AlwaysFF,
    Assign,
    Instance,
    Net,
    Param,
    Port,
    RBin,
    RConcat,
    RegDecl,
    RIndex,
    RLit,
    RMux,
    RNot,
    RRef,
    RSlice,
    RtlBody,
    RtlDesign,
    RtlModule,
    SAssign,
    SIf,
    check_design,
)
from .lower import lower_design
from .emit import emit_verilog, render_module, write_design

__all__ = [
    "AlwaysFF",
    "Assign",
    "Instance",
    "Net",
    "Param",
    "Port",
    "RBin",
    "RConcat",
    "RegDecl",
    "RIndex",
    "RLit",
    "RMux",
    "RNot",
    "RRef",
    "RSlice",
    "RtlBody",
    "RtlDesign",
    "RtlModule",
    "SAssign",
    "SIf",
    "check_design",
    "lower_design",
    "emit_verilog",
    "render_module",
    "write_design",
]
