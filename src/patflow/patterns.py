"""Access patterns and FIFO firing thresholds.

An access pattern describes one firing of a dataflow node as a sequence of
per-cycle token counts, e.g. ``[0, 1, 1]`` for a producer that is silent for
one cycle and then emits one token in each of the next two.  Patterns are
restricted to entries that are either ``0`` or a single shared positive value
``n``; anything else costs disproportionate control logic downstream and is
rejected up front.

The firing threshold of an edge answers: given the producer is currently at
phase ``j`` of its own firing, how many tokens must already sit in the FIFO
so that a consumer starting *now* is guaranteed to finish its whole firing
without stalling?  Two variants are provided:

* :func:`compute_fifo_thresholds` assumes tokens produced in a cycle can be
  consumed in that same cycle (combinational forwarding, e.g. from a source
  port).
* :func:`compute_registered_thresholds` assumes tokens land in the FIFO one
  cycle after production (registered producer output).  Its entries are
  pointwise >= the combinational ones.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .errors import AllZero, EmptyPattern, MixedNonZeroValues

__all__ = [
    "AccessPattern",
    "FiringThresholds",
    "PatternSet",
    "validate_pattern",
    "compute_fifo_thresholds",
    "compute_registered_thresholds",
    "divisor_refinements",
]


@dataclass(frozen=True)
class AccessPattern:
    """A validated per-cycle token-count sequence for one firing.

    Construct via :func:`validate_pattern`; the constructor itself does not
    re-check the 0/n restriction.
    """

    phases: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.phases)

    def __getitem__(self, i: int) -> int:
        return self.phases[i]

    def __iter__(self):
        return iter(self.phases)

    @property
    def total(self) -> int:
        """Tokens moved by one complete firing."""
        return sum(self.phases)

    @property
    def value(self) -> int:
        """The shared non-zero entry ``n``."""
        return max(self.phases)

    @property
    def active_phases(self) -> int:
        """Number of phases that actually move tokens."""
        return sum(1 for p in self.phases if p)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.phases) + "]"


def validate_pattern(raw: Iterable[int]) -> AccessPattern:
    """Check a raw integer sequence and wrap it as an :class:`AccessPattern`.

    Parameters
    ----------
    raw : iterable of int
        Token counts, one per cycle of the firing.

    Returns
    -------
    AccessPattern

    Raises
    ------
    EmptyPattern
        If the sequence has no entries.
    MixedNonZeroValues
        If two distinct non-zero counts appear.
    AllZero
        If no entry is positive.
    """
    phases = tuple(int(p) for p in raw)
    if not phases:
        raise EmptyPattern("access pattern must have at least one phase")
    if any(p < 0 for p in phases):
        raise MixedNonZeroValues(f"negative token count in {list(phases)}")
    nonzero = {p for p in phases if p != 0}
    if not nonzero:
        raise AllZero(f"pattern {list(phases)} moves no tokens")
    if len(nonzero) > 1:
        raise MixedNonZeroValues(
            f"pattern {list(phases)} mixes non-zero values {sorted(nonzero)}; "
            "entries must be 0 or one shared value n"
        )
    return AccessPattern(phases)


@dataclass(frozen=True)
class FiringThresholds:
    """Minimum FIFO occupancies that let a consumer start safely.

    ``entries[j]`` applies while the producer is at phase ``j`` of its own
    firing; ``entries[-1]`` (the *idle* entry) applies when the producer is
    between firings, in which case no future production is assumed and a
    full firing's worth of tokens must already be buffered.
    """

    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    @property
    def per_phase(self) -> tuple[int, ...]:
        """Thresholds for the producer's real phases (idle entry dropped)."""
        return self.entries[:-1]

    @property
    def idle(self) -> int:
        """Threshold when the producer is not firing."""
        return self.entries[-1]

    def __str__(self) -> str:
        inner = ",".join(str(e) for e in self.per_phase)
        return f"[{inner}] idle={self.idle}"


def _thresholds(pp: AccessPattern, cp: AccessPattern, shift: int) -> FiringThresholds:
    # With the producer at phase j (j == len(pp) models the idle producer),
    # cycle i of the consumer's firing has consumed consumed[i] tokens and
    # seen produced[min(j + i + 1 - shift, len(pp))] - produced[j] arrive.
    # The entry is the largest shortfall, and at least 0.  Past the end of
    # cp consumption stops growing, so only its cycles matter; once
    # production has ended the shortfall is largest at cp's last cycle.
    produced = [0, *accumulate(pp.phases)]
    consumed = list(accumulate(cp.phases))
    tail = consumed[-1] - produced[-1]
    return FiringThresholds(tuple(
        max(0, produced[j] + max([tail, *map(sub, consumed, produced[j + 1 - shift:])]))
        for j in range(len(produced))
    ))


def compute_fifo_thresholds(pp: AccessPattern, cp: AccessPattern) -> FiringThresholds:
    """Thresholds assuming same-cycle visibility of produced tokens.

    For each producer phase ``j``, the production still to come is
    ``pp[j:]``; the consumer needs enough buffered tokens to cover every
    prefix where cumulative consumption exceeds cumulative future
    production.  The idle entry assumes no production at all and therefore
    equals ``total(cp)``.

    Parameters
    ----------
    pp, cp : AccessPattern
        Production and consumption patterns of one edge.

    Returns
    -------
    FiringThresholds
        ``len(pp) + 1`` entries, the last being the idle entry.
    """
    return _thresholds(pp, cp, shift=0)


def compute_registered_thresholds(
    pp: AccessPattern, cp: AccessPattern
) -> FiringThresholds:
    """Thresholds assuming produced tokens arrive one cycle late.

    Identical to :func:`compute_fifo_thresholds` except that production in
    cycle ``t`` only becomes available in cycle ``t + 1``, which is how a
    registered (clocked) producer output behaves.  Every entry is >= the
    same-cycle variant's entry.
    """
    return _thresholds(pp, cp, shift=1)


def divisor_refinements(total: int) -> list[AccessPattern]:
    """All uniform patterns ``[d] * k`` with ``d * k == total``.

    The result is ordered from the widest pattern (``[total]``, one phase)
    to the narrowest (``[1] * total``).  Non-uniform splits such as
    ``[4, 2]`` are deliberately excluded: mixing values inside a pattern
    buys nothing but control overhead.

    Parameters
    ----------
    total : int
        Tokens per firing; must be >= 1.

    Returns
    -------
    list of AccessPattern
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    out = []
    for d in range(total, 0, -1):
        if total % d == 0:
            out.append(AccessPattern((d,) * (total // d)))
    return out


@dataclass(frozen=True)
class PatternSet:
    """The input and output patterns of one node.

    All member patterns must share the same length; that length is the
    node's execution time in cycles.  The length check lives in graph
    validation so that a single report can list every offending node.
    """

    inputs: tuple[AccessPattern, ...]
    outputs: tuple[AccessPattern, ...]

    @property
    def all_patterns(self) -> tuple[AccessPattern, ...]:
        return self.inputs + self.outputs

    @property
    def length(self) -> int:
        """Execution time in cycles (length of any member pattern)."""
        return len(self.all_patterns[0]) if self.all_patterns else 0

    def uniform_length(self) -> bool:
        lengths = {len(p) for p in self.all_patterns}
        return len(lengths) <= 1
