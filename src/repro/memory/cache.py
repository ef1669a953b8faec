"""A set-associative cache with true-LRU replacement.

The implementation favours access speed in pure Python: each set is a
contiguous slice of a flat tag list, MRU-ordered so a hit is usually found
in the first one or two comparisons and LRU eviction is just the last slot.
State is snapshotable for checkpoint/livepoint support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple

from ..config import CacheConfig
from ..errors import SnapshotError

__all__ = ["Cache", "CacheStats"]

#: Sentinel tag meaning "way is empty".
_EMPTY = -1


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    accesses: int = 0
    hits: int = 0
    writebacks: int = 0

    @property
    def misses(self) -> int:
        """Number of accesses that missed."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.hits = 0
        self.writebacks = 0


class Cache:
    """Set-associative, write-back, write-allocate cache with LRU.

    Args:
        config: geometry and latency.
        name: label used in stats reporting.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._line_shift = config.line_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        self._set_mask = self._n_sets - 1
        self._power_of_two_sets = (self._n_sets & (self._n_sets - 1)) == 0
        self._assoc = config.assoc
        # Flat MRU-ordered storage: set s occupies slots [s*assoc, (s+1)*assoc).
        self._tags: List[int] = [_EMPTY] * (self._n_sets * self._assoc)
        self._dirty: List[bool] = [False] * (self._n_sets * self._assoc)
        self.stats = CacheStats()

    @property
    def hit_latency(self) -> int:
        """Cycles to service a hit at this level."""
        return self.config.hit_latency

    @property
    def n_sets(self) -> int:
        """Number of sets in this cache."""
        return self._n_sets

    def _set_index(self, line: int) -> int:
        if self._power_of_two_sets:
            return line & self._set_mask
        return line % self._n_sets

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up *addr*; allocate on miss.  Returns True on hit.

        A miss evicts the LRU way; if the victim is dirty a writeback is
        counted.  The caller (the hierarchy) is responsible for propagating
        the miss to the next level.
        """
        line = addr >> self._line_shift
        base = self._set_index(line) * self._assoc
        tags = self._tags
        dirty = self._dirty
        stats = self.stats
        stats.accesses += 1
        end = base + self._assoc
        for i in range(base, end):
            if tags[i] == line:
                stats.hits += 1
                # Move to MRU position by rotating the set's slice only —
                # a del/insert pair would memmove the whole flat list.
                if i != base:
                    d = dirty[i]
                    tags[base + 1 : i + 1] = tags[base:i]
                    dirty[base + 1 : i + 1] = dirty[base:i]
                    tags[base] = line
                    dirty[base] = d
                if is_write:
                    dirty[base] = True
                return True
        # Miss: evict LRU (last slot of the set).
        if dirty[end - 1] and tags[end - 1] != _EMPTY:
            stats.writebacks += 1
        tags[base + 1 : end] = tags[base : end - 1]
        dirty[base + 1 : end] = dirty[base : end - 1]
        tags[base] = line
        dirty[base] = is_write
        return False

    def hot_refs(self) -> Tuple[Any, ...]:
        """Internal-state references for callers that inline the access path.

        Returns ``(tags, dirty, line_shift, assoc, pow2_sets, set_mask,
        n_sets)``.  The replay kernel
        (:meth:`~repro.memory.CacheHierarchy.warm_data_run`) binds these as
        locals and runs the :meth:`access` state transition inline — the
        lists are the live storage, so inlined transitions and method calls
        remain interchangeable at every point.
        """
        return (
            self._tags,
            self._dirty,
            self._line_shift,
            self._assoc,
            self._power_of_two_sets,
            self._set_mask,
            self._n_sets,
        )

    def distinct_sets(self, addrs: Iterable[int], salt: int = 0) -> bool:
        """Do the lines holding *addrs* fall in pairwise distinct sets?

        Addresses sharing a line count once, so the answer holds for any
        line size, including lines smaller than the spacing of *addrs*.
        """
        shift = self._line_shift
        lines = {(addr ^ salt) >> shift for addr in addrs}
        return len({self._set_index(line) for line in lines}) == len(lines)

    def contains(self, addr: int) -> bool:
        """Return True if *addr*'s line is resident (no state change)."""
        line = addr >> self._line_shift
        base = self._set_index(line) * self._assoc
        return line in self._tags[base : base + self._assoc]

    def flush(self) -> None:
        """Invalidate every line and clear dirty bits (stats survive)."""
        n = self._n_sets * self._assoc
        self._tags = [_EMPTY] * n
        self._dirty = [False] * n

    def snapshot(self) -> Tuple[List[int], List[bool]]:
        """Return a copy of the tag/dirty state for checkpointing."""
        return (list(self._tags), list(self._dirty))

    def restore(self, state: Tuple[List[int], List[bool]]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        tags, dirty = state
        if len(tags) != self._n_sets * self._assoc:
            raise SnapshotError("snapshot geometry does not match this cache")
        self._tags = list(tags)
        self._dirty = list(dirty)

    def resident_lines(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for t in self._tags if t != _EMPTY)

    def __repr__(self) -> str:
        c = self.config
        return (
            f"Cache({self.name}: {c.size_bytes // 1024}KB, {c.assoc}-way, "
            f"{c.line_bytes}B lines, hit={self.stats.hit_rate:.3f})"
        )
