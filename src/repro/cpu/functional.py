"""Functional execution modes: warming and pure fast-forward.

*Functional warming* keeps the long-lifetime structures — caches and branch
predictor — warm while skipping all timing, exactly the SMARTS/PGSS
fast-forward mode.  *Pure fast-forward* touches nothing; it exists for
SimPoint-style skipping where architectural warmth is re-established later
(and for measuring the cost of warming itself, Fig. 13).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..branch import BranchPredictor
from ..memory import CacheHierarchy
from ..program.mem_patterns import batch_addresses, batch_slices
from ..program.stream import BlockEvent, BlockRun

__all__ = ["FunctionalWarmer"]


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

    def execute_event(self, event: BlockEvent) -> None:
        """Update caches and branch predictor for one block execution."""
        block, taken, k = event
        hierarchy = self.hierarchy
        for line in block.inst_lines:
            hierarchy.warm_inst(line)
        patterns = block.mem_patterns
        for pat in patterns:
            hierarchy.warm_data(pat.address(k), pat.is_write)
        self.predictor.predict_update(block.branch_address, taken)

    def execute_batch(self, runs: Sequence[BlockRun]) -> None:
        """Apply a batch of run-length records; state ends identical to
        :meth:`execute_event` applied to each expanded event in order.

        The three sides of the batch are applied separately, which is
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
        * **Data.** The batch's accesses are generated in program order
          by :func:`~repro.program.mem_patterns.batch_addresses` and
          replayed through the kernel
          :meth:`~repro.memory.CacheHierarchy.warm_data_run`, one call per
          stretch between L1I misses.  An L1I hit never reaches the L2;
          an L1I miss does, so before its L2 access every data access
          that precedes it in program order is replayed.  The L2 then
          sees the event loop's access order exactly.

        Generation and replay go a :func:`~repro.program.mem_patterns.
        batch_slices` slice at a time, which bounds memory on long
        batches.
        """
        predictor = self.predictor
        predict_update = predictor.predict_update
        for run in runs:
            branch_address = run.block.branch_address
            if run.takens is not None:
                for taken in run.takens:
                    predict_update(branch_address, taken)
                continue
            left = run.n - 1 if run.ends_entry else run.n
            while left:
                applied = predictor.taken_streak(branch_address, left)
                if not applied:
                    predict_update(branch_address, True)
                    applied = 1
                left -= applied
            if run.ends_entry:
                predict_update(branch_address, False)

        hierarchy = self.hierarchy
        warm_data_run = hierarchy.warm_data_run
        fetch_l1i = hierarchy.fetch_l1i
        fill_inst = hierarchy.fill_inst
        pinned_of = self._pinned
        l1i_stats = hierarchy.l1i.stats
        for part in batch_slices(runs):
            addrs, writes = batch_addresses(part)
            addrs = addrs.tolist()
            writes = writes.tolist()
            done = 0  # data accesses replayed so far
            at = 0  # data position of the current run's iteration 0
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
                    for line in inst_lines:
                        if fetch_l1i(line):
                            continue
                        upto = at + i * width
                        if upto > done:
                            warm_data_run(addrs[done:upto], writes[done:upto])
                            done = upto
                        fill_inst(line)
                if pinned:
                    silent = (run.n - 1) * len(inst_lines)
                    l1i_stats.accesses += silent
                    l1i_stats.hits += silent
                at += run.n * width
            if done:
                warm_data_run(addrs[done:], writes[done:])
            elif addrs:
                warm_data_run(addrs, writes)
