"""Block-event trace recording and replay (trace-driven simulation).

The framework is execution-driven — streams are generated from program
structure — but trace-driven operation matters for two workflows the
surrounding literature uses heavily:

* *dynamic trace generation* (Pereira et al., the Online-SimPoint paper,
  generate "cycle-close" traces for embedded-system studies);
* *cross-tool reproduction*: a captured trace replays bit-identically on a
  different machine configuration, isolating architectural effects from
  workload generation.

:class:`EventTrace` stores a dynamic basic-block event sequence compactly
(three numpy arrays); :class:`TraceStream` replays one through the normal
:class:`~repro.cpu.SimulationEngine` interface, as run-length batches
(:meth:`TraceStream.next_events`) like the execution-driven stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ProgramError
from .program import Program
from .stream import BlockEvent, BlockRun, ProgramStream

__all__ = ["EventTrace", "TraceStream", "record_trace"]


class EventTrace:
    """A compact dynamic basic-block event sequence.

    Attributes:
        program_name: name of the program the trace was captured from.
        bids: ``(n,)`` block ids, in execution order.
        taken: ``(n,)`` terminator outcomes.
        ks: ``(n,)`` per-block execution counts (memory-generator inputs).
    """

    def __init__(
        self,
        program_name: str,
        bids: np.ndarray,
        taken: np.ndarray,
        ks: np.ndarray,
    ) -> None:
        if not (len(bids) == len(taken) == len(ks)):
            raise ProgramError("trace arrays must have equal lengths")
        self.program_name = program_name
        self.bids = np.asarray(bids, dtype=np.int32)
        self.taken = np.asarray(taken, dtype=bool)
        self.ks = np.asarray(ks, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.bids.shape[0])

    def total_ops(self, program: Program) -> int:
        """Dynamic op count of the trace when bound to *program*."""
        sizes = np.array([b.n_ops for b in program.blocks], dtype=np.int64)
        return int(sizes[self.bids].sum())

    def save(self, path: Path) -> None:
        """Serialise to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            program=np.array(self.program_name),
            bids=self.bids,
            taken=self.taken,
            ks=self.ks,
        )

    @classmethod
    def load(cls, path: Path) -> "EventTrace":
        """Load a trace previously written by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        return cls(
            program_name=str(data["program"]),
            bids=data["bids"],
            taken=data["taken"],
            ks=data["ks"],
        )

    def as_stream(self, program: Program) -> "TraceStream":
        """Bind the trace to *program* for replay."""
        return TraceStream(program, self)


class TraceStream:
    """Replays an :class:`EventTrace` through the stream interface.

    Drop-in compatible with :class:`~repro.program.ProgramStream` for the
    simulation engine: ``next_events``, ``next_event``/iteration,
    ``ops_emitted``, ``exhausted``, and snapshot/restore.
    """

    def __init__(self, program: Program, trace: EventTrace) -> None:
        if trace.program_name != program.name:
            raise ProgramError(
                f"trace was captured from {trace.program_name!r}, "
                f"not {program.name!r}"
            )
        if len(trace) and int(trace.bids.max()) >= program.n_blocks:
            raise ProgramError("trace references blocks the program lacks")
        self.program = program
        self.trace = trace
        self._index = 0
        self.ops_emitted = 0
        sizes = np.array([b.n_ops for b in program.blocks], dtype=np.int64)
        #: Ops of events 0..i inclusive, for the budget search.
        self._cum_ops = np.cumsum(sizes[trace.bids])
        # A run ends after event i when the next event is another block or
        # a non-consecutive k, or when event i is a loop-controlled
        # block's not-taken exit.
        loop = np.array([b.random_taken_prob is None for b in program.blocks])
        bids, ks = trace.bids, trace.ks
        self._run_ends = (
            (bids[1:] != bids[:-1])
            | (ks[1:] != ks[:-1] + 1)
            | (~trace.taken[:-1] & loop[bids[:-1]])
        )

    @property
    def exhausted(self) -> bool:
        """True once every event has been replayed."""
        return self._index >= len(self.trace)

    def next_event(self) -> Optional[BlockEvent]:
        """Return the next replayed event, or ``None`` at the end."""
        i = self._index
        trace = self.trace
        if i >= len(trace):
            return None
        block = self.program.blocks[int(trace.bids[i])]
        event = BlockEvent(block, bool(trace.taken[i]), int(trace.ks[i]))
        self._index = i + 1
        self.ops_emitted += block.n_ops
        return event

    def next_events(self, max_ops: int) -> List[BlockRun]:
        """Replay events totalling at least *max_ops* ops as run-length
        records.

        The batched equivalent of calling :meth:`next_event` until the op
        budget is crossed, with the budget rule of
        :meth:`~repro.program.ProgramStream.next_events`: the event that
        reaches it is the last one replayed.  Consecutive executions of
        one block with consecutive execution counts form a run, which a
        loop-controlled block's not-taken outcome ends
        (``ends_entry``); random-branch blocks carry their recorded
        outcomes in ``takens``.  Expanding the runs reproduces the
        recorded events, and the stream lands where a scalar walk over
        the same budget leaves it.

        Returns an empty list if *max_ops* is not positive or the trace is
        exhausted.
        """
        start = self._index
        total = len(self.trace)
        if max_ops <= 0 or start >= total:
            return []
        cum = self._cum_ops
        base = int(cum[start - 1]) if start else 0
        stop = min(int(np.searchsorted(cum, base + max_ops)) + 1, total)
        cuts = np.flatnonzero(self._run_ends[start : stop - 1]) + (start + 1)
        bounds: List[int] = [start, *cuts.tolist(), stop]
        blocks = self.program.blocks
        bids = self.trace.bids
        taken = self.trace.taken
        ks = self.trace.ks
        runs: List[BlockRun] = []
        for lo, hi in zip(bounds, bounds[1:]):
            block = blocks[int(bids[lo])]
            takens: Optional[Tuple[bool, ...]] = None
            if block.random_taken_prob is not None:
                takens = tuple(taken[lo:hi].tolist())
            ends_entry = takens is None and not taken[hi - 1]
            runs.append(BlockRun(block, hi - lo, int(ks[lo]), ends_entry, takens))
        self._index = stop
        self.ops_emitted += int(cum[stop - 1]) - base
        return runs

    def __iter__(self) -> Iterator[BlockEvent]:
        return self

    def __next__(self) -> BlockEvent:
        event = self.next_event()
        if event is None:
            raise StopIteration
        return event

    def snapshot(self) -> Dict[str, Any]:
        """Capture replay position."""
        return {"index": self._index, "ops_emitted": self.ops_emitted}

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore a position captured by :meth:`snapshot`."""
        self._index = state["index"]
        self.ops_emitted = state["ops_emitted"]


def record_trace(program: Program, max_ops: Optional[int] = None) -> EventTrace:
    """Capture *program*'s dynamic event sequence.

    Args:
        program: the workload to record.
        max_ops: stop after at least this many ops (default: full run).
    """
    stream = ProgramStream(program)
    bids = []
    taken = []
    ks = []
    while True:
        if max_ops is not None and stream.ops_emitted >= max_ops:
            break
        event = stream.next_event()
        if event is None:
            break
        bids.append(event.block.bid)
        taken.append(event.taken)
        ks.append(event.k)
    return EventTrace(
        program_name=program.name,
        bids=np.array(bids, dtype=np.int32),
        taken=np.array(taken, dtype=bool),
        ks=np.array(ks, dtype=np.int64),
    )
