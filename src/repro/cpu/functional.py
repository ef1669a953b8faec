"""Functional execution modes: warming and pure fast-forward.

*Functional warming* keeps the long-lifetime structures — caches and branch
predictor — warm while skipping all timing, exactly the SMARTS/PGSS
fast-forward mode.  *Pure fast-forward* touches nothing; it exists for
SimPoint-style skipping where architectural warmth is re-established later
(and for measuring the cost of warming itself, Fig. 13).
"""

from __future__ import annotations

from itertools import cycle
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..branch import BranchPredictor
from ..memory import CacheHierarchy
from ..program.mem_patterns import pattern_addresses
from ..program.stream import BlockEvent, BlockRun

__all__ = ["FunctionalWarmer"]

#: ``probe(k, limit)``: net-silent data iterations from *k*, at most *limit*.
_Probe = Callable[[int, int], int]


class FunctionalWarmer:
    """Applies the architectural (non-timing) effects of block events.

    Shares the hierarchy and predictor objects with the detailed pipeline so
    that a switch from fast-forwarding to detailed simulation sees warm
    state, as the SMARTS methodology requires.
    """

    def __init__(self, hierarchy: CacheHierarchy, predictor: BranchPredictor) -> None:
        self.hierarchy = hierarchy
        self.predictor = predictor
        # Per block id: (fetch lines pinned after one pass, bound L1D
        # net-silence probe or None, per-access write flags) — see
        # CacheHierarchy.
        self._plans: Dict[int, Tuple[bool, Optional[_Probe], Tuple[bool, ...]]] = {}

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

    def execute_run(self, run: BlockRun) -> None:
        """Apply one run-length record; state ends identical to
        :meth:`execute_event` applied to each expanded event.

        The three sides of a run are applied separately, which is exact
        because none of them can observe the others within the run:

        * **Branch.** The predictor shares no state with the caches.  A
          loop-controlled run's taken middle goes through
          :meth:`~repro.branch.BranchPredictor.taken_streak` (one real
          ``predict_update`` whenever the streak stalls), then the final
          not-taken outcome; a random-branch run applies its *takens*.
        * **Instruction.** When the L1I lines holding a block's
          ``inst_lines`` fall in distinct sets
          (:meth:`~repro.memory.CacheHierarchy.inst_lines_pinned`),
          iteration 0 leaves each at MRU.  Nothing else in the run touches
          the L1I (L2 evictions do not back-invalidate L1), so every later
          fetch is a silent hit: one counter add.  Blocks that wrap the
          L1I replay per event.
        * **Data.** Every replayed access goes through the kernel
          :meth:`~repro.memory.CacheHierarchy.warm_data_run`.  An
          all-strided block replays its first iteration, then probes the
          rest of the run for net-silent iterations with
          :meth:`~repro.memory.CacheHierarchy.data_silence_probe`, the
          probe of the detailed pipeline's fast path.  A span is credited
          as hits in bulk; when it is cut short, the iteration that ended
          it is replayed without re-probing and the probe resumes after
          it.  When a probe fails, the rest of the run is replayed in
          one kernel call: a block that misses on every access pays one
          failed probe per run.  Blocks with a hashed (RANDOM/CHASE)
          pattern replay the whole run in one call, their addresses
          generated vectorised by
          :func:`~repro.program.mem_patterns.pattern_addresses`.  This is
          exact whatever the probe decides: a silent access changes only
          the L1D access and hit counters, so replaying it leaves the
          same state as crediting it.  Silent L1 hits never reach the
          L2, so the L2 access stream the two L1s share keeps its order.
        """
        block = run.block
        n = run.n
        hierarchy = self.hierarchy
        plan = self._plans.get(block.bid)
        if plan is None:
            plan = self._plans[block.bid] = (
                hierarchy.inst_lines_pinned(block.inst_lines),
                hierarchy.data_silence_probe(block.mem_patterns),
                tuple(pat.is_write for pat in block.mem_patterns),
            )
        pinned, probe, writes = plan
        if n == 1 or not pinned:
            # Single event, or degenerate geometry where the block's own
            # fetch lines collide within a set: plain replay.
            for event in run.events():
                self.execute_event(event)
            return

        predictor = self.predictor
        branch_address = block.branch_address
        if run.takens is not None:
            predict_update = predictor.predict_update
            for taken in run.takens:
                predict_update(branch_address, taken)
        else:
            left = n - 1 if run.ends_entry else n
            while left:
                applied = predictor.taken_streak(branch_address, left)
                if not applied:
                    predictor.predict_update(branch_address, True)
                    applied = 1
                left -= applied
            if run.ends_entry:
                predictor.predict_update(branch_address, False)

        inst_lines = block.inst_lines
        warm_inst = hierarchy.warm_inst
        for line in inst_lines:
            warm_inst(line)
        silent = (n - 1) * len(inst_lines)
        l1i_stats = hierarchy.l1i.stats
        l1i_stats.accesses += silent
        l1i_stats.hits += silent

        patterns = block.mem_patterns
        if not patterns:
            return
        k = run.k_start
        end = k + n
        warm_data_run = hierarchy.warm_data_run
        if probe is not None:
            l1d_stats = hierarchy.l1d.stats
            n_pat = len(patterns)
            while True:
                warm_data_run([pat.address(k) for pat in patterns], writes)
                k += 1
                if k == end:
                    return
                span = probe(k, end - k)
                if not span:
                    break
                l1d_stats.accesses += span * n_pat
                l1d_stats.hits += span * n_pat
                k += span
                if k == end:
                    return
        # Hashed blocks, and strided blocks from a failed probe on.
        ks = np.arange(k, end, dtype=np.int64)
        if len(patterns) == 1:
            addrs = pattern_addresses(patterns[0], ks)
        else:
            addrs = np.stack(
                [pattern_addresses(pat, ks) for pat in patterns], axis=1
            ).ravel()
        warm_data_run(addrs.tolist(), cycle(writes))
