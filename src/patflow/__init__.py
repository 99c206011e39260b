"""patflow: scheduling, simulation and RTL generation for synchronous
dataflow graphs with per-cycle access patterns.

Ports produce and consume tokens against fixed per-cycle patterns; firings
start only above per-edge occupancy thresholds and then never stall.  From
a validated graph the package derives the thresholds, a cycle-accurate
schedule with FIFO sizes, a value-level simulation equivalent to the
functional semantics, a resource estimate, and structural Verilog.
"""

from .errors import (
    AllZero,
    CapacityMissing,
    CycleDetected,
    DanglingEdge,
    Deadlock,
    Diagnostic,
    DocumentError,
    DuplicatePort,
    EmptyPattern,
    ExprSyntaxError,
    FifoOverflow,
    GraphError,
    HorizonExceeded,
    InconsistentRates,
    MixedNonZeroValues,
    NameCollision,
    PatflowError,
    PatternError,
    ScheduleError,
    ShapeMismatch,
    UnknownEdge,
    UnknownNode,
    UnsupportedExpr,
)
from .patterns import (
    AccessPattern,
    FiringThresholds,
    PatternSet,
    compute_fifo_thresholds,
    compute_registered_thresholds,
    divisor_refinements,
    validate_pattern,
)
from .exprs import (
    Scalar,
    Shape,
    TupleShape,
    Vector,
    eval_expr,
    format_expr,
    infer_shape,
    parse_expr,
)
from .graphs import (
    EdgeSpec,
    Graph,
    NodeKind,
    NodeSpec,
    build_graph,
    compute_repetition_vector,
    validate_graph,
)
from .lowering import (
    REGISTER_FIFO_MAX,
    DatapathPlan,
    EdgeLowering,
    edge_gate_table,
    lower_edges,
    lower_hof_node,
)
from .schedule import (
    Schedule,
    TimingReport,
    render_gantt,
    schedule_to_json,
    simulate_schedule,
    size_fifos,
    timing_report,
)
from .valuesim import (
    EquivalenceReport,
    SimResult,
    equivalence_check,
    eval_combinational,
    random_stimulus,
    simulate_clocked,
)
from .estimate import (
    ResourceReport,
    estimate_resources,
    render_report,
    report_to_json,
)
from .rtl import check_design, emit_verilog, lower_design, write_design

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PatflowError", "PatternError", "EmptyPattern", "MixedNonZeroValues",
    "AllZero", "GraphError", "UnknownNode", "DuplicatePort", "DanglingEdge",
    "InconsistentRates", "CycleDetected", "UnknownEdge", "ExprSyntaxError",
    "ShapeMismatch", "UnsupportedExpr", "ScheduleError", "Deadlock",
    "HorizonExceeded", "FifoOverflow", "DocumentError", "NameCollision",
    "CapacityMissing", "Diagnostic",
    # patterns
    "AccessPattern", "FiringThresholds", "PatternSet", "validate_pattern",
    "compute_fifo_thresholds", "compute_registered_thresholds",
    "divisor_refinements",
    # expressions
    "parse_expr", "format_expr", "eval_expr", "infer_shape",
    "Shape", "Scalar", "Vector", "TupleShape",
    # graphs
    "Graph", "NodeSpec", "EdgeSpec", "NodeKind", "build_graph",
    "validate_graph", "compute_repetition_vector",
    # lowering
    "DatapathPlan", "EdgeLowering", "lower_hof_node", "lower_edges",
    "edge_gate_table", "REGISTER_FIFO_MAX",
    # scheduling
    "Schedule", "TimingReport", "simulate_schedule", "timing_report",
    "size_fifos", "render_gantt", "schedule_to_json",
    # value simulation
    "SimResult", "EquivalenceReport", "simulate_clocked",
    "eval_combinational", "equivalence_check", "random_stimulus",
    # estimation
    "ResourceReport", "estimate_resources", "report_to_json", "render_report",
    # rtl
    "emit_verilog", "lower_design", "write_design", "check_design",
]
