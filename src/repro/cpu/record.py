"""Outcome records: one warming pass, replayed by any number of measurements.

Since the detailed modes run the same architectural pass as functional
warming, the cache and predictor state at op X is a function of X alone,
whatever mix of FUNC_WARM, DETAIL_WARM and DETAIL brought the stream
there.  So are the outcomes that pass records for the timing replay: the
mispredicted iterations, the fetch stalls and the L1D misses of every
iteration (:meth:`~repro.cpu.functional.FunctionalWarmer.execute_batch`).

An :class:`OutcomeRecord` owns a *recording* engine.  Every batch that
engine's architectural pass takes, FUNC_WARM included, leaves its
outcomes in the record, slice by slice, each slice with its global op,
iteration and access offsets.  A *replaying* engine
(``SimulationEngine(..., outcomes=record)``) runs no cache simulation of
its own: it fast-forwards in FUNC_FAST, serves FUNC_WARM by advancing
its stream and tracker only, and serves DETAIL_WARM and DETAIL by
handing the record's outcomes for its runs to
:meth:`~repro.cpu.pipeline.InOrderPipeline.replay`, which is a pure
function of the runs, their outcomes and the timing state.  Its cycles
are those a live engine would count at the same ops, byte for byte
(DESIGN.md §19).

A record lives for one technique run, or, complete, for one experiment
worker (:class:`~repro.experiments.runner.RecordSlot`): it holds every
slice's runs, and there is no process-wide memo of records.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from ..config import DEFAULT_MACHINE, MachineConfig
from ..errors import SimulationError
from ..program import Program
from ..program.mem_patterns import batch_slices
from ..program.stream import BlockRun
from .engine import SimulationEngine
from .functional import Outcomes

__all__ = ["OutcomeRecord"]


def _identity(program: Program, machine: MachineConfig) -> Tuple[object, ...]:
    """What a record's outcomes depend on besides the op: the program's
    name, seed and op budget, and the machine."""
    return (program.name, program.seed, program.total_ops, machine)


#: A timing replay of one slice (:meth:`InOrderPipeline.replay`, maybe
#: with window marks bound).
Replay = Callable[[List[BlockRun], Outcomes], None]


class OutcomeRecord:
    """The architectural outcomes of one warming pass over *program*.

    Args:
        program: the workload.
        machine: machine configuration of the recording engine (and of
            every engine that replays from the record).

    Attributes:
        engine: the recording engine.  Whoever creates the record drives
            it (a session plan, or :func:`~repro.sampling.session.
            measure_intervals` warming it on demand) and merges its
            accounting once.
    """

    def __init__(
        self, program: Program, machine: MachineConfig = DEFAULT_MACHINE
    ) -> None:
        self.program = program
        self.machine = machine
        # What the recording stream was made of; the seed is read now
        # because a Program's seed can be reassigned afterwards.
        self._identity = _identity(program, machine)
        #: First op of every recorded slice (ascending, for bisection).
        self._op_starts: List[int] = []
        #: First iteration of every recorded slice.
        self._iteration_starts: List[int] = []
        #: Per slice: (first access, its runs, its slice-relative outcomes).
        self._slices: List[Tuple[int, List[BlockRun], Outcomes]] = []
        self._ops = 0
        self._iterations = 0
        self._accesses = 0
        # The engine refers back to its record weakly: a strong cycle
        # would keep every dead record, and its engine's caches, alive
        # until the collector's next full pass.
        self.engine = SimulationEngine(
            program, machine=machine, recorder=weakref.proxy(self)
        )

    @property
    def ops(self) -> int:
        """Ops recorded so far, from the program's first."""
        return self._ops

    def matches(self, program: Program, machine: MachineConfig) -> bool:
        """True when *program* on *machine* is what this record was made
        of: the same name, seed and op budget, on the same machine."""
        return _identity(program, machine) == self._identity

    def recording(self, start_op: int, replay: Optional[Replay]) -> Replay:
        """The callback the recording engine hands its architectural pass
        for a batch starting at op *start_op*: record each slice, then
        replay its timing when the mode is detailed."""
        if start_op != self._ops:
            raise SimulationError(
                f"the record of {self.program.name} ends at op {self._ops}; "
                f"a batch from op {start_op} would leave a gap"
            )

        def take(part: List[BlockRun], outcomes: Outcomes) -> None:
            self._op_starts.append(self._ops)
            self._iteration_starts.append(self._iterations)
            self._slices.append((self._accesses, part, outcomes))
            for run in part:
                self._ops += run.n * run.block.n_ops
                self._iterations += run.n
                self._accesses += run.n * len(run.block.mem_patterns)
            if replay is not None:
                replay(part, outcomes)

        return take

    def locate(self, runs: Sequence[BlockRun], start_op: int) -> Tuple[int, int]:
        """The global iteration and access at which *runs*, a batch that
        starts at op *start_op*, begin in the record.

        Raises:
            SimulationError: if the record does not reach the batch's
                end, or holds another block at its start (the replaying
                stream is not the recorded one).
        """
        end = start_op + sum(run.n * run.block.n_ops for run in runs)
        if end > self._ops:
            raise SimulationError(
                f"the record of {self.program.name} ends at op {self._ops}, "
                f"short of op {end}"
            )
        return self._locate(start_op, runs[0])

    def replay(self, runs: Sequence[BlockRun], start_op: int, replay: Replay) -> None:
        """Hand *replay* the recorded outcomes of *runs*, a batch that
        starts at op *start_op*, one :func:`~repro.program.mem_patterns.
        batch_slices` slice at a time, re-based to each slice.

        Raises:
            SimulationError: as :meth:`locate`.
        """
        iteration, access = self.locate(runs, start_op)
        for part in batch_slices(runs):
            iterations = accesses = 0
            for run in part:
                iterations += run.n
                accesses += run.n * len(run.block.mem_patterns)
            replay(
                part,
                self._outcomes(
                    iteration, iteration + iterations, access, access + accesses
                ),
            )
            iteration += iterations
            access += accesses

    def _locate(self, op: int, first: BlockRun) -> Tuple[int, int]:
        """The global iteration and access at op *op*, where the recorded
        stream must execute *first*'s block at its ``k_start``."""
        index = bisect_right(self._op_starts, op) - 1
        at = self._op_starts[index]
        iteration = self._iteration_starts[index]
        access, part, _ = self._slices[index]
        for run in part:
            n_ops = run.block.n_ops
            if op < at + run.n * n_ops:
                k, off_boundary = divmod(op - at, n_ops)
                if (
                    off_boundary
                    or run.k_start + k != first.k_start
                    or (run.block.bid, run.block.address)
                    != (first.block.bid, first.block.address)
                ):
                    break
                return iteration + k, access + k * len(run.block.mem_patterns)
            at += run.n * n_ops
            iteration += run.n
            access += run.n * len(run.block.mem_patterns)
        raise SimulationError(
            f"op {op} of {self.program.name} does not start execution "
            f"{first.k_start} of block {first.block.bid} in the record: "
            "it is of another stream"
        )

    def _outcomes(
        self, first: int, stop: int, first_access: int, stop_access: int
    ) -> Outcomes:
        """The recorded outcomes of iterations ``[first, stop)`` and data
        accesses ``[first_access, stop_access)``, relative to *first* and
        *first_access*."""
        mispredicts: List[int] = []
        stalls: List[Tuple[int, int, int]] = []
        misses: List[int] = []
        index = bisect_right(self._iteration_starts, first) - 1
        while index < len(self._slices) and self._iteration_starts[index] < stop:
            start = self._iteration_starts[index]
            access, _, (slice_mispredicts, slice_stalls, slice_misses) = self._slices[
                index
            ]
            lo, hi = first - start, stop - start
            mispredicts += [
                m - lo
                for m in slice_mispredicts[
                    bisect_left(slice_mispredicts, lo) : bisect_left(
                        slice_mispredicts, hi
                    )
                ]
            ]
            stalls += [
                (it - lo, by_l2, by_memory)
                for it, by_l2, by_memory in slice_stalls[
                    bisect_left(slice_stalls, (lo,)) : bisect_left(slice_stalls, (hi,))
                ]
            ]
            # access << 1 | went_to_memory: an even shift keeps the flag.
            lo, hi = (first_access - access) << 1, (stop_access - access) << 1
            misses += [
                m - lo
                for m in slice_misses[
                    bisect_left(slice_misses, lo) : bisect_left(slice_misses, hi)
                ]
            ]
            index += 1
        return mispredicts, stalls, misses
