"""Functional execution modes: warming and pure fast-forward.

*Functional warming* keeps the long-lifetime structures — caches and branch
predictor — warm while skipping all timing, exactly the SMARTS/PGSS
fast-forward mode.  *Pure fast-forward* touches nothing; it exists for
SimPoint-style skipping where architectural warmth is re-established later
(and for measuring the cost of warming itself, Fig. 13).

The batched warming pass (:meth:`FunctionalWarmer.execute_batch`) is also
the architectural half of the batched detailed modes: detailed simulation
changes the caches and predictor exactly as warming does, so it runs the
same pass, records the misses, mispredictions and fetch stalls, and leaves
only their timing to :meth:`~repro.cpu.pipeline.InOrderPipeline.replay`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..branch import BranchPredictor
from ..memory import CacheHierarchy
from ..program.mem_patterns import AddressWindows, batch_slices
from ..program.stream import BlockRun

__all__ = ["FunctionalWarmer", "Outcomes"]

#: What the architectural pass records for the timing replay of one slice:
#: ``(mispredicted iterations, fetch stalls, L1D misses)`` — see
#: :meth:`FunctionalWarmer.execute_batch`.
Outcomes = Tuple[List[int], List[Tuple[int, int, int]], List[int]]


class FunctionalWarmer:
    """Applies the architectural (non-timing) effects of block events.

    Shares the hierarchy and predictor objects with the detailed pipeline so
    that a switch from fast-forwarding to detailed simulation sees warm
    state, as the SMARTS methodology requires.
    """

    def __init__(self, hierarchy: CacheHierarchy, predictor: BranchPredictor) -> None:
        self.hierarchy = hierarchy
        self.predictor = predictor
        # Per block id: do its fetch lines stay pinned after one pass (see
        # CacheHierarchy.inst_lines_pinned)?
        self._pinned: Dict[int, bool] = {}
        self._addresses = AddressWindows(hierarchy.address_salt)

    def execute_batch(
        self,
        runs: Sequence[BlockRun],
        replay: Optional[Callable[[List[BlockRun], Outcomes], None]] = None,
    ) -> None:
        """Apply a batch of run-length records; state ends identical to
        fetching, accessing the data and updating the predictor for each
        expanded event in order.

        This is the one architectural pass of every batched mode that
        touches the caches.  It goes a :func:`~repro.program.mem_patterns.
        batch_slices` slice at a time, which bounds memory on long
        batches, and applies each slice's three sides separately.  That is
        exact because they share no state but the L2, whose access order
        is kept:

        * **Branch.** The predictor shares no state with the caches.  Run
          by run, a loop-controlled run's taken middle goes through
          :meth:`~repro.branch.BranchPredictor.taken_streak` (one real
          ``predict_update`` whenever the streak stalls), then the final
          not-taken outcome; a random-branch run applies its *takens*.
        * **Instruction.** Iteration 0 of each run fetches for real.  When
          the L1I lines holding a block's ``inst_lines`` fall in distinct
          sets (:meth:`~repro.memory.CacheHierarchy.inst_lines_pinned`),
          that pass leaves each at MRU, and nothing else in the run
          touches the L1I (data never does, and L2 evictions do not
          back-invalidate L1), so every later fetch is a silent hit: one
          counter add.  Blocks that wrap the L1I fetch on every iteration.
        * **Data.** The slice's accesses come, in program order, from
          :class:`~repro.program.mem_patterns.AddressWindows` and are
          replayed through the kernel
          :meth:`~repro.memory.CacheHierarchy.warm_data_run`, one call per
          stretch between L1I misses.  An L1I hit never reaches the L2;
          an L1I miss does, so before its L2 access every data access
          that precedes it in program order is replayed.  The L2 then
          sees the event loop's access order exactly.

        With *replay* (the detailed modes), the pass also records what
        the timing model needs and hands each slice to
        ``replay(slice, (mispredicts, stalls, misses))`` as soon as its
        outcomes exist, indexed relative to the slice: the iterations
        whose branch mispredicted, ``(iteration, lines served by the L2,
        lines served by memory)`` for every iteration whose fetch missed
        the L1I, and ``access << 1 | went_to_memory`` for every L1D miss.
        Without it nothing is recorded.
        """
        hierarchy = self.hierarchy
        warm_data_run = hierarchy.warm_data_run
        fetch_l1i = hierarchy.fetch_l1i
        fill_inst = hierarchy.fill_inst
        pinned_of = self._pinned
        l1i_stats = hierarchy.l1i.stats
        record = replay is not None
        for part in batch_slices(runs):
            mispredicts = self._apply_branches(part, record)
            stream = self._addresses.stream(part)
            stalls: List[Tuple[int, int, int]] = []
            misses: List[int] = []
            miss_log = misses if record else None
            done = 0  # data accesses replayed so far
            at = 0  # data position of the current run's iteration 0
            it = 0
            for run in part:
                block = run.block
                inst_lines = block.inst_lines
                width = len(block.mem_patterns)
                pinned = pinned_of.get(block.bid)
                if pinned is None:
                    pinned = pinned_of[block.bid] = hierarchy.inst_lines_pinned(
                        inst_lines
                    )
                for i in range(1 if pinned else run.n):
                    by_l2 = by_memory = 0
                    for line in inst_lines:
                        if fetch_l1i(line):
                            continue
                        upto = at + i * width
                        if upto > done:
                            warm_data_run(stream[done:upto], done, miss_log)
                            done = upto
                        if fill_inst(line):
                            by_l2 += 1
                        else:
                            by_memory += 1
                    if record and (by_l2 or by_memory):
                        stalls.append((it + i, by_l2, by_memory))
                if pinned:
                    silent = (run.n - 1) * len(inst_lines)
                    l1i_stats.accesses += silent
                    l1i_stats.hits += silent
                at += run.n * width
                it += run.n
            if done < len(stream):
                warm_data_run(stream[done:] if done else stream, done, miss_log)
            if replay is not None:
                replay(part, (mispredicts, stalls, misses))

    def _apply_branches(self, runs: Sequence[BlockRun], record: bool) -> List[int]:
        """The branch side of :meth:`execute_batch` for one slice; returns
        the mispredicted iterations, counted from the slice's first, when
        *record* is set (an empty list otherwise)."""
        predict_update = self.predictor.predict_update
        taken_streak = self.predictor.taken_streak
        mispredicts: List[int] = []
        it = 0  # slice iteration of the current run's iteration 0
        for run in runs:
            branch_address = run.block.branch_address
            if run.takens is not None:
                for i, taken in enumerate(run.takens):
                    if not predict_update(branch_address, taken) and record:
                        mispredicts.append(it + i)
            else:
                left = run.n - 1 if run.ends_entry else run.n
                i = 0
                while i < left:
                    applied = taken_streak(branch_address, left - i)
                    if not applied:
                        if not predict_update(branch_address, True) and record:
                            mispredicts.append(it + i)
                        applied = 1
                    i += applied
                if run.ends_entry and not predict_update(branch_address, False):
                    if record:
                        mispredicts.append(it + left)
            it += run.n
        return mispredicts
