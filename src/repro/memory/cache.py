"""A set-associative cache with true-LRU replacement.

The implementation favours access speed in pure Python: each set is a
contiguous slice of a flat tag list, MRU-ordered so a hit is usually found
in the first one or two comparisons and LRU eviction is just the last slot.
State is snapshotable for checkpoint/livepoint support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

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

    def access_quiet(self, addr: int, is_write: bool = False) -> bool:
        """:meth:`access` minus the access/hit counters.

        State transitions (MRU moves, allocation, dirty bits) and the
        writeback counter are identical to :meth:`access`; the caller is
        responsible for adding the corresponding access/hit counts in
        bulk.  The batched pipeline uses this so its hot loop can defer
        counter arithmetic to one flush per run.  The set lookup is
        inlined and the MRU hit returns early — this is the hottest
        primitive of the batched detailed path.
        """
        line = addr >> self._line_shift
        if self._power_of_two_sets:
            base = (line & self._set_mask) * self._assoc
        else:
            base = (line % self._n_sets) * self._assoc
        tags = self._tags
        dirty = self._dirty
        if tags[base] == line:
            if is_write:
                dirty[base] = True
            return True
        end = base + self._assoc
        for i in range(base + 1, end):
            if tags[i] == line:
                d = dirty[i]
                tags[base + 1 : i + 1] = tags[base:i]
                dirty[base + 1 : i + 1] = dirty[base:i]
                tags[base] = line
                dirty[base] = d or is_write
                return True
        if dirty[end - 1] and tags[end - 1] != _EMPTY:
            self.stats.writebacks += 1
        tags[base + 1 : end] = tags[base : end - 1]
        dirty[base + 1 : end] = dirty[base : end - 1]
        tags[base] = line
        dirty[base] = is_write
        return False

    def hot_refs(self) -> Tuple[Any, ...]:
        """Internal-state references for callers that inline the access path.

        Returns ``(tags, dirty, line_shift, assoc, pow2_sets, set_mask,
        n_sets)``.  The batched pipeline binds these as locals and runs the
        :meth:`access_quiet` state transition inline in its hot loop —
        the lists are the live storage, so inlined transitions and method
        calls remain interchangeable at every point.
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

    def is_silent_hit(self, addr: int, is_write: bool = False) -> bool:
        """Would :meth:`access` hit *without changing any state*?

        True exactly when the line is resident at the MRU position of its
        set (so no reorder happens) and, for writes, is already dirty (so
        no dirty bit flips).  A silent access changes nothing but the
        hit/access counters — the steadiness probe behind the detailed
        pipeline's closed-form fast path.
        """
        line = addr >> self._line_shift
        base = self._set_index(line) * self._assoc
        if self._tags[base] != line:
            return False
        return not is_write or self._dirty[base]

    def distinct_sets(self, addrs: Iterable[int], salt: int = 0) -> bool:
        """Do the lines holding *addrs* fall in pairwise distinct sets?

        Addresses sharing a line count once, so the answer holds for any
        line size, including lines smaller than the spacing of *addrs*.
        """
        shift = self._line_shift
        lines = {(addr ^ salt) >> shift for addr in addrs}
        return len({self._set_index(line) for line in lines}) == len(lines)

    def silent_span_strided(
        self,
        base: int,
        stride: int,
        span: int,
        k_start: int,
        limit: int,
        is_write: bool,
        salt: int = 0,
    ) -> int:
        """Silent-hit span of a strided pattern (see :meth:`is_silent_hit`).

        Returns the largest ``m <= limit`` such that accesses at
        ``base + (k * stride) % span`` for ``k in [k_start, k_start + m)``
        would all be silent hits.  Consecutive executions sharing a cache
        line are vouched for together, so the walk is per line-group, not
        per execution.  The tag checks are inlined — this runs inside the
        batched pipeline's hot loop.
        """
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        assoc = self._assoc
        line_mask = (1 << shift) - 1
        pow2 = self._power_of_two_sets
        set_mask = self._set_mask
        n_sets = self._n_sets
        k = k_start
        end = k_start + limit
        while k < end:
            off = (k * stride) % span
            line = ((base + off) ^ salt) >> shift
            b = (line & set_mask if pow2 else line % n_sets) * assoc
            if tags[b] != line or (is_write and not dirty[b]):
                break
            # Executions sharing this line (and staying inside the span)
            # are silent together; jump straight past them.
            by_line = ((off | line_mask) - off) // stride + 1
            by_wrap = (span - off + stride - 1) // stride
            k += by_line if by_line < by_wrap else by_wrap
        return (k if k < end else end) - k_start

    def silent_block_span(
        self,
        pats: Tuple[Tuple[int, int, int, bool], ...],
        k_start: int,
        limit: int,
        salt: int = 0,
    ) -> int:
        """Net-silent span of one block's strided accesses, probed jointly.

        *pats* holds ``(base, stride, span, is_write)`` per access in
        program order.  An iteration is *net-silent* when executing all
        its accesses in order leaves the cache byte-identical: every
        access hits, writes land on already-dirty lines, and the lines
        accessed this iteration already occupy the top ways of their sets
        in reverse order of last access — so the MRU moves of the
        iteration permute them right back where they started.  This
        subsumes the single-access MRU test and additionally covers
        blocks whose patterns share a set (e.g. two equal-stride streams
        with aligned bases): individually neither line is at MRU-stable
        rest, but each iteration restores the pair's layout exactly.

        Returns the largest ``m <= limit`` with iterations
        ``k_start .. k_start + m - 1`` all net-silent.  The walk advances
        one line-configuration at a time — iterations that touch the same
        lines are vouched for together.
        """
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        assoc = self._assoc
        line_mask = (1 << shift) - 1
        pow2 = self._power_of_two_sets
        set_mask = self._set_mask
        n_sets = self._n_sets
        n_l = len(pats)
        k = k_start
        end = k_start + limit
        while k < end:
            step = end - k
            lines = []
            for base, stride, span, w in pats:
                off = (k * stride) % span
                line = ((base + off) ^ salt) >> shift
                b = (line & set_mask if pow2 else line % n_sets) * assoc
                lines.append((b, line, w))
                by_line = ((off | line_mask) - off) // stride + 1
                by_wrap = (span - off + stride - 1) // stride
                g = by_line if by_line < by_wrap else by_wrap
                if g < step:
                    step = g
            shared = False
            for x in range(1, n_l):
                bx = lines[x][0]
                for y in range(x):
                    if lines[y][0] == bx:
                        shared = True
                        break
                if shared:
                    break
            ok = True
            if not shared:
                # All sets distinct: net-silence is per-line MRU rest.
                for b, line, w in lines:
                    if tags[b] != line or (w and not dirty[b]):
                        ok = False
                        break
            else:
                # Shared sets: the iteration's lines must sit at the top
                # ways in reverse order of last access, writes on dirty
                # lines — then the iteration's MRU moves restore the
                # layout exactly.
                per_set: dict = {}
                for b, line, w in lines:
                    entry = per_set.setdefault(b, [])
                    for idx, (l2, w2) in enumerate(entry):
                        if l2 == line:
                            del entry[idx]
                            w = w or w2
                            break
                    entry.append((line, w))
                for b, entry in per_set.items():
                    j = 0
                    for line, w in reversed(entry):
                        if tags[b + j] != line or (w and not dirty[b + j]):
                            ok = False
                            break
                        j += 1
                    if not ok:
                        break
            if not ok:
                break
            k += step
        return (k if k < end else end) - k_start

    def silent_block_pair_span(
        self,
        p1: Tuple[int, int, int, bool],
        p2: Tuple[int, int, int, bool],
        k_start: int,
        limit: int,
        salt: int = 0,
    ) -> int:
        """:meth:`silent_block_span` unrolled for the two-access case.

        Two strided accesses per iteration is the common shape of a
        stream-plus-reuse loop body, and the general walk's per-iteration
        list/dict bookkeeping dominates its cost there; this variant keeps
        everything in scalars.  Semantics are identical.
        """
        b1, s1, sp1, w1 = p1
        b2, s2, sp2, w2 = p2
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        assoc = self._assoc
        line_mask = (1 << shift) - 1
        pow2 = self._power_of_two_sets
        set_mask = self._set_mask
        n_sets = self._n_sets
        k = k_start
        end = k_start + limit
        while k < end:
            o1 = (k * s1) % sp1
            l1 = ((b1 + o1) ^ salt) >> shift
            a1 = (l1 & set_mask if pow2 else l1 % n_sets) * assoc
            o2 = (k * s2) % sp2
            l2 = ((b2 + o2) ^ salt) >> shift
            a2 = (l2 & set_mask if pow2 else l2 % n_sets) * assoc
            if a1 != a2:
                # Distinct sets: net-silence is per-line MRU rest.
                if tags[a1] != l1 or (w1 and not dirty[a1]):
                    break
                if tags[a2] != l2 or (w2 and not dirty[a2]):
                    break
            elif l1 == l2:
                # One line touched twice: silent iff at MRU, dirty when
                # either access writes.
                if tags[a1] != l1 or ((w1 or w2) and not dirty[a1]):
                    break
            else:
                # Same set, two lines: the later access must rest at MRU
                # with the earlier one right behind it — the iteration's
                # MRU moves then restore the layout exactly.
                if tags[a1] != l2 or tags[a1 + 1] != l1:
                    break
                if (w2 and not dirty[a1]) or (w1 and not dirty[a1 + 1]):
                    break
            g = ((o1 | line_mask) - o1) // s1 + 1
            gw = (sp1 - o1 + s1 - 1) // s1
            if gw < g:
                g = gw
            gl = ((o2 | line_mask) - o2) // s2 + 1
            if gl < g:
                g = gl
            gw = (sp2 - o2 + s2 - 1) // s2
            if gw < g:
                g = gw
            step = end - k
            k += g if g < step else step
        return (k if k < end else end) - k_start

    def silent_span_hashed(
        self,
        address: Any,
        k_start: int,
        limit: int,
        is_write: bool,
        salt: int = 0,
    ) -> int:
        """Silent-hit span of a hashed pattern, probed per execution."""
        tags = self._tags
        dirty = self._dirty
        shift = self._line_shift
        assoc = self._assoc
        pow2 = self._power_of_two_sets
        set_mask = self._set_mask
        n_sets = self._n_sets
        for i in range(limit):
            line = (address(k_start + i) ^ salt) >> shift
            b = (line & set_mask if pow2 else line % n_sets) * assoc
            if tags[b] != line or (is_write and not dirty[b]):
                return i
        return limit

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
