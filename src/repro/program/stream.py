"""The program stream: a resumable walk of a program's phase script.

Every simulation mode consumes the same stream of :class:`BlockEvent`
records — one per dynamic basic-block execution.  The stream is an explicit
state machine (not a generator) so it can be snapshotted and restored,
which is what makes checkpoints/livepoints (paper Section 6) possible and
lets SimPoint's two passes see byte-identical traces.

The per-block execution counter carried in each event doubles as the *k*
input to the block's memory-address generators, so machine-independent
program state is fully captured by (script position, counters, RNG state).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ProgramError
from .block import BasicBlock
from .program import Program

__all__ = ["BlockEvent", "BlockRun", "ProgramStream"]


class BlockEvent(NamedTuple):
    """One dynamic basic-block execution.

    Attributes:
        block: the static block executed.
        taken: outcome of the terminating branch.
        k: this block's execution count *before* this event (the input to
            its memory-address generators).
    """

    block: BasicBlock
    taken: bool
    k: int


class BlockRun(NamedTuple):
    """A run-length record: *n* back-to-back executions of one block.

    Produced by :meth:`ProgramStream.next_events` and, for replayed
    traces, :meth:`~repro.program.trace_io.TraceStream.next_events`.  A
    loop-controlled run never spans an entry boundary, so the
    branch-outcome pattern is fully determined by two fields: for
    loop-controlled blocks (``random_taken_prob is None``) every outcome
    is taken except, when *ends_entry* is true, the final one; for
    random-branch blocks the per-event outcomes are carried in *takens*
    verbatim, in RNG order.

    Attributes:
        block: the static block executed *n* times.
        n: number of consecutive executions (>= 1).
        k_start: the block's execution count before the first execution;
            event ``i`` of the run has ``k = k_start + i``.
        ends_entry: True when the run's last event is the final iteration
            of its behaviour entry (the loop exit).
        takens: per-event branch outcomes for random-branch blocks;
            ``None`` for loop-controlled blocks.
    """

    block: BasicBlock
    n: int
    k_start: int
    ends_entry: bool
    takens: Optional[Tuple[bool, ...]] = None

    @property
    def ops(self) -> int:
        """Total operations in the run."""
        return self.n * self.block.n_ops

    @property
    def last_taken(self) -> int:
        """Index of the run's last taken outcome, or -1 if none is taken."""
        if self.takens is not None:
            for i in range(self.n - 1, -1, -1):
                if self.takens[i]:
                    return i
            return -1
        return self.n - 2 if self.ends_entry else self.n - 1

    def taken_at(self, i: int) -> bool:
        """Branch outcome of event *i* (0-based) of the run."""
        if self.takens is not None:
            return self.takens[i]
        return i < self.n - 1 or not self.ends_entry

    def events(self) -> Iterator[BlockEvent]:
        """Expand the run back into its scalar :class:`BlockEvent` form."""
        block = self.block
        k_start = self.k_start
        for i in range(self.n):
            yield BlockEvent(block, self.taken_at(i), k_start + i)


class ProgramStream:
    """Iterator over a program's dynamic basic-block executions.

    Args:
        program: the program to walk.

    The stream ends when the phase script is exhausted; :attr:`ops_emitted`
    then equals the program's nominal length give or take the final block.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._rng = random.Random(program.seed)
        self._exec_counts: List[int] = [0] * program.n_blocks
        self._seg_index = 0
        self._seg_ops_left = program.script[0].ops if program.script else 0
        self._behavior = program.behavior_of_segment(0)
        self._entry_index = 0
        self._iters_left = self._behavior.resolve_iters(0, self._rng)
        self.ops_emitted = 0
        self._done = False

    def next_event(self) -> Optional[BlockEvent]:
        """Return the next event, or ``None`` when the script is finished."""
        if self._done:
            return None

        behavior = self._behavior
        block = behavior.entry_block(self._entry_index)
        last_iteration = self._iters_left <= 1

        if block.random_taken_prob is not None:
            taken = self._rng.random() < block.random_taken_prob
        else:
            # Loop-style control: backward branch taken until the last
            # iteration of this entry.
            taken = not last_iteration

        k = self._exec_counts[block.bid]
        self._exec_counts[block.bid] = k + 1
        self.ops_emitted += block.n_ops
        self._seg_ops_left -= block.n_ops

        # Advance loop position.
        if last_iteration:
            self._entry_index += 1
            if self._entry_index >= behavior.n_entries():
                self._entry_index = 0
            self._iters_left = behavior.resolve_iters(self._entry_index, self._rng)
        else:
            self._iters_left -= 1

        # Advance the phase script when the segment budget expires.
        if self._seg_ops_left <= 0:
            self._advance_segment()

        return BlockEvent(block, taken, k)

    def _advance_segment(self) -> None:
        """Move to the next phase-script segment (or finish the stream)."""
        self._seg_index += 1
        if self._seg_index >= len(self.program.script):
            self._done = True
        else:
            segment = self.program.script[self._seg_index]
            self._seg_ops_left = segment.ops
            self._behavior = self.program.behaviors[segment.behavior]
            self._entry_index = 0
            self._iters_left = self._behavior.resolve_iters(0, self._rng)

    def next_events(self, max_ops: int) -> List[BlockRun]:
        """Advance the stream by at least *max_ops* ops in closed form.

        The batched equivalent of calling :meth:`next_event` until the op
        budget is crossed: deterministic loop iterations collapse into
        :class:`BlockRun` run-length records with the execution counters,
        op counts and segment budget updated arithmetically, while
        random-branch blocks draw from the RNG once per event in exactly
        the scalar order.  The stream therefore lands in a byte-identical
        state (:meth:`snapshot` compares equal) to a scalar walk over the
        same budget, and expanding the runs with :meth:`BlockRun.events`
        reproduces the scalar event sequence exactly.

        Stops early (returning fewer ops) when the script ends.  Returns
        an empty list if *max_ops* is not positive or the stream is
        already exhausted.
        """
        runs: List[BlockRun] = []
        if max_ops <= 0 or self._done:
            return runs
        goal = self.ops_emitted + max_ops
        rng = self._rng
        exec_counts = self._exec_counts
        while not self._done and self.ops_emitted < goal:
            behavior = self._behavior
            block = behavior.entry_block(self._entry_index)
            n_ops = block.n_ops
            iters = self._iters_left
            # The scalar loop checks its budgets *after* each event, so
            # both the batch goal and the segment budget are crossed by
            # the event that reaches them: ceil-divide the remainders.
            by_budget = -((self.ops_emitted - goal) // n_ops)
            by_segment = -(-self._seg_ops_left // n_ops)
            n = min(iters, by_budget, by_segment)
            ends_entry = n == iters

            takens: Optional[Tuple[bool, ...]] = None
            prob = block.random_taken_prob
            if prob is not None:
                # One draw per event, in the scalar order (no other draw
                # can interleave before the entry boundary).
                takens = tuple(rng.random() < prob for _ in range(n))

            k_start = exec_counts[block.bid]
            exec_counts[block.bid] = k_start + n
            total = n * n_ops
            self.ops_emitted += total
            self._seg_ops_left -= total
            runs.append(BlockRun(block, n, k_start, ends_entry, takens))

            if ends_entry:
                # Scalar order: the entry advance resolves the next
                # entry's iteration count *before* any segment switch.
                self._entry_index += 1
                if self._entry_index >= behavior.n_entries():
                    self._entry_index = 0
                self._iters_left = behavior.resolve_iters(self._entry_index, rng)
            else:
                self._iters_left = iters - n
            if self._seg_ops_left <= 0:
                self._advance_segment()
        return runs

    def __iter__(self) -> Iterator[BlockEvent]:
        return self

    def __next__(self) -> BlockEvent:
        event = self.next_event()
        if event is None:
            raise StopIteration
        return event

    @property
    def exhausted(self) -> bool:
        """True once the phase script has been fully walked."""
        return self._done

    @property
    def current_behavior_name(self) -> str:
        """Name of the behaviour the next event will come from."""
        return self._behavior.name

    def snapshot(self) -> Dict[str, Any]:
        """Capture the complete stream state for checkpointing."""
        return {
            "rng": self._rng.getstate(),
            "exec_counts": list(self._exec_counts),
            "seg_index": self._seg_index,
            "seg_ops_left": self._seg_ops_left,
            "entry_index": self._entry_index,
            "iters_left": self._iters_left,
            "ops_emitted": self.ops_emitted,
            "done": self._done,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        if len(state["exec_counts"]) != self.program.n_blocks:
            raise ProgramError("snapshot does not match this program")
        self._rng.setstate(state["rng"])
        self._exec_counts = list(state["exec_counts"])
        self._seg_index = state["seg_index"]
        self._seg_ops_left = state["seg_ops_left"]
        self._entry_index = state["entry_index"]
        self._iters_left = state["iters_left"]
        self.ops_emitted = state["ops_emitted"]
        self._done = state["done"]
        if not self._done:
            segment = self.program.script[self._seg_index]
            self._behavior = self.program.behaviors[segment.behavior]
