"""A set-associative cache with true-LRU replacement.

The implementation favours access speed in pure Python: each set is its
own MRU-ordered list of tags, so a hit is usually found in the first one or
two comparisons, a hit below MRU is a ``remove``/``insert`` pair and a miss
pops the LRU tag and inserts the new one.  The dirty resident lines are one
``set``, so dirty bits never move with their tags.  State is snapshotable
for checkpoint/livepoint support, as flat MRU-ordered tag and dirty lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

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
        self._assoc = config.assoc
        self.flush()
        self.stats = CacheStats()

    @property
    def hit_latency(self) -> int:
        """Cycles to service a hit at this level."""
        return self.config.hit_latency

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up *addr*; allocate on miss.  Returns True on hit.

        A miss evicts the LRU way; if the victim is dirty a writeback is
        counted.  The caller (the hierarchy) is responsible for propagating
        the miss to the next level.
        """
        line = addr >> self._line_shift
        if is_write:
            self._dirty.add(line)
        ways = self._sets[line % self._n_sets]
        stats = self.stats
        stats.accesses += 1
        if ways[0] == line:
            stats.hits += 1
            return True
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            stats.hits += 1
            return True
        victim = ways.pop()
        ways.insert(0, line)
        if victim in self._dirty:
            self._dirty.remove(victim)
            stats.writebacks += 1
        return False

    def hot_refs(self) -> Tuple[List[List[int]], Set[int], int, int]:
        """Internal-state references for callers that inline the access path.

        Returns ``(sets, dirty, line_shift, n_sets)``: the MRU-ordered tag
        list of each set (set ``line % n_sets`` holds *line*) and the set of
        dirty resident lines.  The replay kernel
        (:meth:`~repro.memory.CacheHierarchy.warm_data_run`) binds these as
        locals and runs the :meth:`access` state transition inline — they
        are the live storage, so inlined transitions and method calls
        remain interchangeable at every point.  :meth:`flush` and
        :meth:`restore` rebind them, so fetch them again after either.  The
        dirty set is only ever tested for membership and updated, never
        iterated, so its order cannot reach any result (pgss-lint DET006
        has nothing to flag).
        """
        return (self._sets, self._dirty, self._line_shift, self._n_sets)

    def distinct_sets(self, addrs: Iterable[int], salt: int = 0) -> bool:
        """Do the lines holding *addrs* fall in pairwise distinct sets?

        Addresses sharing a line count once, so the answer holds for any
        line size, including lines smaller than the spacing of *addrs*.
        """
        shift = self._line_shift
        lines = {(addr ^ salt) >> shift for addr in addrs}
        return len({line % self._n_sets for line in lines}) == len(lines)

    def flush(self) -> None:
        """Invalidate every line and clear dirty bits (stats survive)."""
        self._sets: List[List[int]] = [
            [_EMPTY] * self._assoc for _ in range(self._n_sets)
        ]
        self._dirty: Set[int] = set()

    def snapshot(self) -> Tuple[List[int], List[bool]]:
        """Return a copy of the tag/dirty state for checkpointing.

        The flat format: set *s* occupies slots ``[s*assoc, (s+1)*assoc)``
        of both lists, MRU first.
        """
        tags = [tag for ways in self._sets for tag in ways]
        dirty = self._dirty
        return (tags, [tag in dirty for tag in tags])

    def restore(self, state: Tuple[List[int], List[bool]]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        tags, dirty = state
        n = self._n_sets * self._assoc
        if len(tags) != n:
            raise SnapshotError("snapshot geometry does not match this cache")
        if len(dirty) != n:
            raise SnapshotError("snapshot dirty bits do not match its tags")
        a = self._assoc
        self._sets = [list(tags[b : b + a]) for b in range(0, n, a)]
        self._dirty = {t for t, d in zip(tags, dirty) if d and t != _EMPTY}

    def __repr__(self) -> str:
        c = self.config
        return (
            f"Cache({self.name}: {c.size_bytes // 1024}KB, {c.assoc}-way, "
            f"{c.line_bytes}B lines, hit={self.stats.hit_rate:.3f})"
        )
