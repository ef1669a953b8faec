"""Behaviors: loop structures over basic blocks.

A :class:`Behavior` is the unit of *phase identity* in a synthetic program:
one behaviour corresponds to one steady-state code region (a loop nest).
When a behaviour executes, it cycles through its ``(block, iterations)``
entries; each entry runs its block ``iterations`` times back-to-back with
the terminating branch taken on every repeat except the last (classic
backward loop branch).  Iteration counts may carry jitter so the branch
predictor sees realistic exit mispredictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..errors import ProgramError
from .block import BasicBlock

__all__ = ["Behavior"]

#: An iteration spec: a fixed count or a (mean, jitter) pair resolved per
#: visit as ``uniform(mean - jitter, mean + jitter)``.
IterSpec = Union[int, Tuple[int, int]]


@dataclass(frozen=True)
class _Entry:
    block: BasicBlock
    mean_iters: int
    jitter: int


class Behavior:
    """A named loop nest: the dynamic expression of one program phase.

    Args:
        name: behaviour label (unique within its program).
        entries: sequence of ``(block, iterations)`` pairs; ``iterations``
            is an int or ``(mean, jitter)``.
    """

    def __init__(
        self, name: str, entries: Sequence[Tuple[BasicBlock, IterSpec]]
    ) -> None:
        if not entries:
            raise ProgramError(f"behavior {name!r} needs at least one entry")
        self.name = name
        self._entries: List[_Entry] = []
        for block, spec in entries:
            if isinstance(spec, tuple):
                mean, jitter = spec
            else:
                mean, jitter = spec, 0
            if mean < 1 or jitter < 0 or jitter >= mean:
                raise ProgramError(
                    f"behavior {name!r}: iterations must satisfy "
                    "mean >= 1 and 0 <= jitter < mean"
                )
            self._entries.append(_Entry(block, mean, jitter))

    @property
    def entries(self) -> List[Tuple[BasicBlock, int, int]]:
        """List of ``(block, mean_iters, jitter)`` triples."""
        return [(e.block, e.mean_iters, e.jitter) for e in self._entries]

    @property
    def blocks(self) -> List[BasicBlock]:
        """The distinct blocks this behaviour touches, in entry order."""
        seen = set()
        out = []
        for e in self._entries:
            if e.block.bid not in seen:
                seen.add(e.block.bid)
                out.append(e.block)
        return out

    def n_entries(self) -> int:
        """Number of ``(block, iterations)`` entries."""
        return len(self._entries)

    def resolve_iters(self, entry_index: int, rng: random.Random) -> int:
        """Draw the iteration count for one visit to entry *entry_index*."""
        e = self._entries[entry_index]
        if e.jitter == 0:
            return e.mean_iters
        return rng.randint(e.mean_iters - e.jitter, e.mean_iters + e.jitter)

    def entry_block(self, entry_index: int) -> BasicBlock:
        """The block of entry *entry_index*."""
        return self._entries[entry_index].block

    def __repr__(self) -> str:
        return f"Behavior({self.name!r}, entries={len(self._entries)})"
