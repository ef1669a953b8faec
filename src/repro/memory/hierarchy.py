"""Two-level cache hierarchy with split L1 and unified L2.

Latency semantics follow the usual inclusive look-through model: an L1 hit
costs the L1 hit latency, an L1 miss that hits in L2 costs L1 + L2 latency,
and an L2 miss additionally pays the memory latency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..config import MachineConfig
from .cache import Cache

__all__ = ["CacheHierarchy"]


class CacheHierarchy:
    """Split L1 I/D caches backed by a unified L2 and main memory.

    The engine reaches the caches through the batched data kernel
    :meth:`warm_data_run` and the two halves of an instruction fetch,
    :meth:`fetch_l1i` and :meth:`fill_inst`.  Per-access forms (latency
    and servicing level of one access) live with the scalar reference
    loop in ``tests/scalar_reference.py``.
    """

    def __init__(
        self,
        machine: MachineConfig,
        shared_l2: Optional[Cache] = None,
        address_salt: int = 0,
    ) -> None:
        """Build the hierarchy.

        Args:
            machine: cache geometry and latencies.
            shared_l2: when given, this L2 instance is used instead of a
                private one — the chip-multiprocessor configuration where
                several cores' private L1s share one L2 (paper Section 5:
                the simulated core "is meant to be roughly representative
                of a single core on a modern chip multiprocessor").
            address_salt: high-bit XOR salt applied to every address —
                models distinct physical address spaces per core so two
                programs built from the same generator do not falsely
                share lines in the shared L2.  Must only set bits above
                any generated address (the default core salts use
                bit 36+), so private-cache behaviour is unchanged.
        """
        self.machine = machine
        self.l1i = Cache(machine.l1i, "L1I")
        self.l1d = Cache(machine.l1d, "L1D")
        self.l2 = shared_l2 if shared_l2 is not None else Cache(machine.l2, "L2")
        self.memory_accesses = 0
        self._salt = address_salt

    @property
    def address_salt(self) -> int:
        """The per-core address salt XORed into every access."""
        return self._salt

    def inst_lines_pinned(self, inst_lines: Sequence[int]) -> bool:
        """Does one pass over a block's *inst_lines* pin them all at MRU?

        True when the L1I lines holding them fall in distinct sets.  Then,
        while nothing else touches the L1I, every later fetch of them is a
        silent hit — the instruction side of a run after its first
        iteration.  Counted in L1I lines, so it holds for any L1I line
        size, not only the program's 64-byte fetch lines.
        """
        return self.l1i.distinct_sets(inst_lines, self._salt)

    def warm_data_run(
        self,
        stream: Sequence[int],
        start: int = 0,
        misses: Optional[List[int]] = None,
    ) -> None:
        """Each access of *stream* through the L1D, and the L2 on a miss,
        in order.

        Each entry packs one access as ``(addr ^ address_salt) << 1 |
        is_write`` (:meth:`~repro.program.mem_patterns.AddressWindows.stream`).
        When *misses* is given, each L1D miss appends ``index << 1 |
        went_to_memory`` to it, with accesses indexed from *start*: the
        outcomes the detailed pipeline's timing replay needs.

        The replay kernel of the batched architectural pass: the
        :meth:`Cache.access` transition runs inline on the L1D — dirty the
        line on a write, then MRU check, ``remove``/``insert`` to MRU on a
        hit below it, or pop the LRU tag (a writeback if it was dirty) and
        insert the line on a miss — and an L1D miss repeats it on the L2
        and counts a memory access.  The access/hit/writeback counters are
        added once per call.  The set lists and dirty sets are the caches'
        live storage (:meth:`Cache.hot_refs`), so state and counters end
        exactly as the per-access method calls leave them, for any
        associativity.
        """
        l1d = self.l1d
        l2 = self.l2
        sets1, dirty1, shift1, n1 = l1d.hot_refs()
        sets2, dirty2, shift2, n2 = l2.hot_refs()
        # Shifting the packed entry past its write bit too yields the line.
        shift1 += 1
        shift2 += 1
        note = misses.append if misses is not None else None
        misses1 = hits2 = wb1 = wb2 = 0
        for i, x in enumerate(stream, start):
            line = x >> shift1
            if x & 1:
                dirty1.add(line)
            ways = sets1[line % n1]
            if ways[0] == line:
                continue
            if line in ways:
                ways.remove(line)
                ways.insert(0, line)
                continue
            victim = ways.pop()
            ways.insert(0, line)
            if victim in dirty1:
                dirty1.remove(victim)
                wb1 += 1
            misses1 += 1
            line = x >> shift2
            if x & 1:
                dirty2.add(line)
            ways = sets2[line % n2]
            if ways[0] == line:
                pass
            elif line in ways:
                ways.remove(line)
                ways.insert(0, line)
            else:
                victim = ways.pop()
                ways.insert(0, line)
                if victim in dirty2:
                    dirty2.remove(victim)
                    wb2 += 1
                if note is not None:
                    note(i << 1 | 1)
                continue
            hits2 += 1
            if note is not None:
                note(i << 1)
        applied = len(stream)
        stats = l1d.stats
        stats.accesses += applied
        stats.hits += applied - misses1
        stats.writebacks += wb1
        stats = l2.stats
        stats.accesses += misses1
        stats.hits += hits2
        stats.writebacks += wb2
        self.memory_accesses += misses1 - hits2

    def fetch_l1i(self, addr: int) -> bool:
        """The L1I half of an instruction fetch: touch the L1I only and
        return whether it hit.  A miss must be completed by
        :meth:`fill_inst` for the same *addr*."""
        return self.l1i.access(addr ^ self._salt)

    def fill_inst(self, addr: int) -> bool:
        """The L2 half of an instruction fetch, after :meth:`fetch_l1i`
        missed; returns whether the L2 hit."""
        if self.l2.access(addr ^ self._salt):
            return True
        self.memory_accesses += 1
        return False

    def flush(self) -> None:
        """Invalidate all three caches."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()

    def snapshot(self) -> Dict[str, Any]:
        """Capture all cache contents for checkpointing."""
        return {
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore contents captured by :meth:`snapshot`."""
        self.l1i.restore(state["l1i"])
        self.l1d.restore(state["l1d"])
        self.l2.restore(state["l2"])
