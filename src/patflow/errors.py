"""Exception and diagnostic types shared across the toolkit.

Exceptions signal conditions that make further processing meaningless
(malformed patterns, unbuildable graphs, stuck simulations).  Checks that
should report *all* problems at once (see ``validate_graph``) return
:class:`Diagnostic` values instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PatflowError",
    "PatternError",
    "EmptyPattern",
    "MixedNonZeroValues",
    "AllZero",
    "GraphError",
    "UnknownNode",
    "DuplicatePort",
    "DanglingEdge",
    "InconsistentRates",
    "CycleDetected",
    "UnknownEdge",
    "ExprSyntaxError",
    "ShapeMismatch",
    "UnsupportedExpr",
    "ScheduleError",
    "Deadlock",
    "HorizonExceeded",
    "FifoOverflow",
    "DocumentError",
    "NameCollision",
    "Diagnostic",
]


class PatflowError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Access patterns


class PatternError(PatflowError, ValueError):
    """A raw integer sequence is not a valid access pattern."""


class EmptyPattern(PatternError):
    """The pattern has no phases."""


class MixedNonZeroValues(PatternError):
    """The pattern contains two distinct non-zero token counts."""


class AllZero(PatternError):
    """Every phase of the pattern is zero, so the pattern moves no tokens."""


# ---------------------------------------------------------------------------
# Graph construction and analysis


class GraphError(PatflowError, ValueError):
    """The graph document cannot be linked into a usable graph."""


class UnknownNode(GraphError):
    """An edge references a node name that does not exist."""


class DuplicatePort(GraphError):
    """Two edges feed the same consumer input port."""


class DanglingEdge(GraphError):
    """An edge references a port index that the node does not declare,
    or a declared input port is left unconnected."""


class InconsistentRates(GraphError):
    """The balance equations admit no positive integer repetition vector."""


class CycleDetected(GraphError):
    """The graph contains a directed cycle; feedback is not supported."""


class UnknownEdge(GraphError):
    """A command-line edge selector matches no edge in the graph."""


# ---------------------------------------------------------------------------
# Expression language


class ExprSyntaxError(PatflowError, ValueError):
    """The s-expression text cannot be parsed."""


class ShapeMismatch(PatflowError, TypeError):
    """An expression (or a stimulus) does not fit the expected
    scalar/vector shape."""


class UnsupportedExpr(PatflowError, ValueError):
    """The expression is well-formed but outside what lowering supports."""


# ---------------------------------------------------------------------------
# Scheduling and simulation


class ScheduleError(PatflowError, RuntimeError):
    """The cycle-accurate simulation could not run to completion."""


class Deadlock(ScheduleError):
    """No node can make progress although tokens are still owed."""


class HorizonExceeded(ScheduleError):
    """The simulation ran past its cycle budget without completing."""


class FifoOverflow(ScheduleError):
    """A FIFO exceeded the capacity the scheduler sized it to."""


# ---------------------------------------------------------------------------
# Documents and code generation


class DocumentError(PatflowError, ValueError):
    """The graph document is structurally malformed (schema shape,
    not domain content)."""


class NameCollision(PatflowError, ValueError):
    """Two distinct names sanitize to the same RTL identifier."""


# ---------------------------------------------------------------------------
# Non-raising diagnostics


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding.

    Parameters
    ----------
    code : str
        Stable machine-readable name, e.g. ``"FoldNotAtRoot"``.
    subject : str
        The node or edge the finding is about.
    message : str
        Human-readable explanation.
    """

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"
