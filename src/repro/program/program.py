"""The :class:`Program` container and phase-script :class:`Segment`.

A program's dynamic execution is defined by its *phase script*: an ordered
list of segments, each saying "run behaviour B for approximately N ops".
Segment boundaries are where the program's true phase changes — the ground
truth against which phase-detection quality (paper Section 4) is judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ProgramError
from .behavior import Behavior
from .block import BasicBlock

__all__ = ["Segment", "Program"]


@dataclass(frozen=True)
class Segment:
    """One phase-script entry: run *behavior* for about *ops* operations.

    Segment lengths are approximate: the stream finishes the basic block in
    flight when the budget expires, exactly as a real program crosses a
    phase boundary mid-loop.
    """

    behavior: str
    ops: int

    def __post_init__(self) -> None:
        if self.ops <= 0:
            raise ProgramError("segment ops must be positive")


class Program:
    """A complete synthetic workload.

    Attributes:
        name: workload label (e.g. ``"164.gzip"``).
        blocks: every basic block, indexed by ``bid``.
        behaviors: behaviour table keyed by name.
        script: the phase script.
        seed: RNG seed for iteration jitter and random branches.
    """

    def __init__(
        self,
        name: str,
        blocks: Sequence[BasicBlock],
        behaviors: Sequence[Behavior],
        script: Sequence[Segment],
        seed: int = 0,
    ) -> None:
        if not blocks:
            raise ProgramError("a program needs at least one block")
        if not script:
            raise ProgramError("a program needs a non-empty phase script")
        for i, block in enumerate(blocks):
            if block.bid != i:
                raise ProgramError("blocks must be densely numbered in order")
        self.name = name
        self.blocks: List[BasicBlock] = list(blocks)
        self.behaviors: Dict[str, Behavior] = {}
        for behavior in behaviors:
            if behavior.name in self.behaviors:
                raise ProgramError(f"duplicate behavior name {behavior.name!r}")
            self.behaviors[behavior.name] = behavior
        for segment in script:
            if segment.behavior not in self.behaviors:
                raise ProgramError(
                    f"script references unknown behavior {segment.behavior!r}"
                )
        self.script: List[Segment] = list(script)
        self.seed = seed

    @property
    def total_ops(self) -> int:
        """Nominal dynamic length (sum of segment budgets)."""
        return sum(s.ops for s in self.script)

    @property
    def n_blocks(self) -> int:
        """Number of static basic blocks."""
        return len(self.blocks)

    def behavior_of_segment(self, index: int) -> Behavior:
        """The behaviour executed by script entry *index*."""
        return self.behaviors[self.script[index].behavior]

    def true_phase_at(self, op_offset: int) -> str:
        """Ground-truth behaviour name active at dynamic op *op_offset*.

        Uses nominal segment budgets; the stream may overshoot each boundary
        by at most one basic block.
        """
        if op_offset < 0:
            raise ProgramError("op_offset must be non-negative")
        consumed = 0
        for segment in self.script:
            consumed += segment.ops
            if op_offset < consumed:
                return segment.behavior
        return self.script[-1].behavior

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, blocks={len(self.blocks)}, "
            f"behaviors={len(self.behaviors)}, segments={len(self.script)}, "
            f"ops~{self.total_ops})"
        )
