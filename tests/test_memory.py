"""Tests for the cache model and the two-level hierarchy."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CacheConfig, DEFAULT_MACHINE
from repro.errors import SnapshotError
from repro.memory import Cache, CacheHierarchy

from scalar_reference import (
    access_data,
    access_inst,
    contains,
    resident_lines,
    stats_summary,
    warm_data,
)


def small_cache(assoc: int = 2, sets: int = 4) -> Cache:
    return Cache(CacheConfig(assoc * sets * 64, assoc), name="t")


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True

    def test_same_line_different_offset_hits(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x103F) is True  # same 64B line

    def test_adjacent_line_misses(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, sets=1)  # fully specified single set
        a, b, d = 0x0, 0x40, 0x80
        c.access(a)
        c.access(b)
        c.access(a)      # a is MRU, b is LRU
        c.access(d)      # evicts b
        assert contains(c, a)
        assert not contains(c, b)
        assert contains(c, d)

    def test_hit_refreshes_lru(self):
        c = small_cache(assoc=2, sets=1)
        a, b, d = 0x0, 0x40, 0x80
        c.access(a)
        c.access(b)      # order: b, a
        c.access(a)      # order: a, b
        c.access(d)      # evicts b, not a
        assert contains(c, a) and not contains(c, b)

    def test_writeback_counted_on_dirty_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.access(0x0, is_write=True)
        assert c.stats.writebacks == 0
        c.access(0x40)   # evicts dirty line
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache(assoc=1, sets=1)
        c.access(0x0)
        c.access(0x40)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = small_cache(assoc=1, sets=1)
        c.access(0x0)                 # clean fill
        c.access(0x0, is_write=True)  # dirty it
        c.access(0x40)
        assert c.stats.writebacks == 1

    def test_stats_accounting(self):
        c = small_cache()
        c.access(0x0)
        c.access(0x0)
        c.access(0x40)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(1 / 3)

    def test_flush_invalidates(self):
        c = small_cache()
        c.access(0x0)
        c.flush()
        assert not contains(c, 0x0)
        assert resident_lines(c) == 0

    def test_contains_is_side_effect_free(self):
        c = small_cache()
        c.access(0x0)
        before = c.stats.accesses
        contains(c, 0x0)
        assert c.stats.accesses == before

    def test_snapshot_restore_roundtrip(self):
        c = small_cache()
        for addr in (0x0, 0x40, 0x80, 0x1000):
            c.access(addr, is_write=addr == 0x40)
        snap = c.snapshot()
        c.access(0x2000)
        c.access(0x2040)
        c.restore(snap)
        assert contains(c, 0x0)
        # The restored state must behave identically going forward.
        assert c.access(0x40) is True

    def test_restore_rejects_wrong_geometry(self):
        c1 = small_cache(assoc=2, sets=4)
        c2 = small_cache(assoc=4, sets=4)
        with pytest.raises(SnapshotError):
            c2.restore(c1.snapshot())

    def test_restore_rejects_mismatched_dirty_length(self):
        """A checkpoint whose dirty list is shorter than its tag list is
        refused at restore, not at some later access."""
        c = small_cache(assoc=2, sets=4)
        tags, dirty = c.snapshot()
        with pytest.raises(SnapshotError):
            c.restore((tags, dirty[:-1]))

    def test_capacity_bounded(self):
        c = small_cache(assoc=2, sets=4)
        for i in range(100):
            c.access(i * 64)
        assert resident_lines(c) <= 8


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_resident_never_exceeds_capacity(self, addrs):
        c = small_cache(assoc=2, sets=4)
        for addr in addrs:
            c.access(addr)
        assert resident_lines(c) <= 8

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=2, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_rereference_always_hits(self, addrs):
        c = small_cache()
        for addr in addrs:
            c.access(addr)
            assert c.access(addr) is True

    @given(st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_equivalence(self, addrs):
        """Replaying the same accesses after restore gives identical hits."""
        c = small_cache()
        for addr in addrs[: len(addrs) // 2]:
            c.access(addr)
        snap = c.snapshot()
        tail = addrs[len(addrs) // 2 :]
        first = [c.access(a) for a in tail]
        c.restore(snap)
        second = [c.access(a) for a in tail]
        assert first == second

    @given(st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_is_accesses(self, addrs):
        c = small_cache()
        for addr in addrs:
            c.access(addr)
        assert c.stats.hits + c.stats.misses == c.stats.accesses == len(addrs)


class TestHierarchy:
    def test_l1_hit_latency(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        access_data(h, 0x1000)
        res = access_data(h, 0x1000)
        assert res.level == 1
        assert res.latency == DEFAULT_MACHINE.l1d.hit_latency

    def test_miss_goes_to_memory_first_time(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        res = access_data(h, 0x1000)
        assert res.level == 3
        assert res.latency == (
            DEFAULT_MACHINE.l1d.hit_latency
            + DEFAULT_MACHINE.l2.hit_latency
            + DEFAULT_MACHINE.memory_latency
        )

    def test_l2_hit_after_l1_eviction(self):
        machine = DEFAULT_MACHINE.scaled_cache(1, 1024)  # tiny 1 KB L1
        h = CacheHierarchy(machine)
        access_data(h, 0x0)
        # Blow the 16-line L1 with conflicting lines; L2 keeps everything.
        for i in range(1, 64):
            access_data(h, i * 1024)
        res = access_data(h, 0x0)
        assert res.level == 2

    def test_split_l1_sides_are_independent(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        access_data(h, 0x1000)
        res = access_inst(h, 0x1000)
        # Same address on the I-side does not hit the D-side L1 (it does
        # hit the unified L2).
        assert res.level == 2

    def test_warm_matches_access_state(self):
        h1 = CacheHierarchy(DEFAULT_MACHINE)
        h2 = CacheHierarchy(DEFAULT_MACHINE)
        addrs = [0x0, 0x40, 0x1000, 0x0, 0x40400, 0x1000]
        for a in addrs:
            access_data(h1, a)
            warm_data(h2, a)
        assert h1.snapshot() == h2.snapshot()

    def test_memory_access_counter(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        access_data(h, 0x0)
        access_data(h, 0x0)
        assert h.memory_accesses == 1

    def test_snapshot_restore(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        for i in range(32):
            access_data(h, i * 64)
        snap = h.snapshot()
        h.flush()
        h.restore(snap)
        assert access_data(h, 0x0).level == 1

    def test_stats_summary_keys(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        assert set(stats_summary(h)) == {"L1I", "L1D", "L2"}


def _geometry():
    """A cache geometry: 1-8 ways, any set count, 32- or 64-byte lines."""
    return st.builds(
        lambda assoc, sets, line: CacheConfig(assoc * sets * line, assoc, line),
        st.sampled_from((1, 2, 4, 8)),
        st.integers(min_value=1, max_value=12),
        st.sampled_from((32, 64)),
    )


class FlatListCache:
    """Reference model: the cache as one flat MRU-ordered tag list.

    Set *s* occupies slots ``[s*assoc, (s+1)*assoc)`` of ``tags`` and
    ``dirty``, the layout of :meth:`Cache.snapshot`.  A hit rotates the
    set's slice to bring the line to MRU; a miss shifts the whole set and
    counts a writeback when the LRU slot it drops is valid and dirty.
    """

    def __init__(self, config):
        self.line_shift = config.line_bytes.bit_length() - 1
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self.tags = [-1] * (self.n_sets * self.assoc)
        self.dirty = [False] * (self.n_sets * self.assoc)
        self.accesses = self.hits = self.writebacks = 0

    def access(self, addr, is_write=False):
        line = addr >> self.line_shift
        base = line % self.n_sets * self.assoc
        tags = self.tags
        dirty = self.dirty
        self.accesses += 1
        end = base + self.assoc
        for i in range(base, end):
            if tags[i] == line:
                self.hits += 1
                if i != base:
                    d = dirty[i]
                    tags[base + 1 : i + 1] = tags[base:i]
                    dirty[base + 1 : i + 1] = dirty[base:i]
                    tags[base] = line
                    dirty[base] = d
                if is_write:
                    dirty[base] = True
                return True
        if dirty[end - 1] and tags[end - 1] != -1:
            self.writebacks += 1
        tags[base + 1 : end] = tags[base : end - 1]
        dirty[base + 1 : end] = dirty[base : end - 1]
        tags[base] = line
        dirty[base] = is_write
        return False

    def snapshot(self):
        return (list(self.tags), list(self.dirty))


class TestCacheAgainstFlatListOracle:
    """Cache's per-set storage against the flat-list reference model."""

    @given(
        config=_geometry(),
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=0x3000), st.booleans()),
            max_size=300,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_access_matches_oracle(self, config, ops):
        """Every hit/miss, the snapshot and the counters match the oracle,
        and restoring a snapshot mid-sequence changes nothing."""
        cache, oracle = Cache(config), FlatListCache(config)
        for k, (addr, w) in enumerate(ops):
            assert cache.access(addr, w) is oracle.access(addr, w)
            if k == len(ops) // 2:
                snap = cache.snapshot()
                assert snap == oracle.snapshot()
                cache.restore(snap)
                assert cache.snapshot() == snap
        assert cache.snapshot() == oracle.snapshot()
        stats = cache.stats
        assert (stats.accesses, stats.hits, stats.writebacks) == (
            oracle.accesses,
            oracle.hits,
            oracle.writebacks,
        )
        assert all(type(d) is bool for d in cache.snapshot()[1])


def _warm_counters(h):
    return (
        [(c.stats.accesses, c.stats.hits, c.stats.writebacks) for c in (h.l1i, h.l1d, h.l2)],
        h.memory_accesses,
    )


class TestWarmDataRun:
    """The replay kernel against a loop of per-access calls."""

    @given(
        l1d=_geometry(),
        l2=_geometry(),
        salt=st.sampled_from((0, 1 << 36)),
        chunks=st.lists(
            st.tuples(
                st.booleans(),  # True: the other core on the shared L2
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=0x3000), st.booleans()
                    ),
                    max_size=60,
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        start=st.integers(min_value=0, max_value=1000),
        record=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_warm_data_loop(self, l1d, l2, salt, chunks, start, record):
        """State and counters match, and each recorded L1D miss names
        its access and whether it went to memory, as ``access_data``
        reports for the same access."""
        machine = dataclasses.replace(DEFAULT_MACHINE, l1d=l1d, l2=l2)
        kernel, loop = CacheHierarchy(machine, address_salt=salt), CacheHierarchy(
            machine, address_salt=salt
        )
        others = [
            CacheHierarchy(machine, shared_l2=h.l2, address_salt=salt ^ (1 << 37))
            for h in (kernel, loop)
        ]
        for other_core, ops in chunks:
            if other_core:
                for other in others:
                    for addr, w in ops:
                        warm_data(other, addr, w)
                continue
            stream = [(addr ^ salt) << 1 | w for addr, w in ops]
            misses = [] if record else None
            kernel.warm_data_run(stream, start, misses)
            levels = [access_data(loop, addr, w).level for addr, w in ops]
            if record:
                assert misses == [
                    (start + i) << 1 | (level == 3)
                    for i, level in enumerate(levels)
                    if level > 1
                ]
        assert kernel.snapshot() == loop.snapshot()
        assert _warm_counters(kernel) == _warm_counters(loop)
        assert others[0].snapshot() == others[1].snapshot()
        assert _warm_counters(others[0]) == _warm_counters(others[1])
        # Dirty bits stay bools, as the per-access path leaves them.
        assert all(type(d) is bool for d in kernel.l1d.snapshot()[1])
        assert all(type(d) is bool for d in kernel.l2.snapshot()[1])


class TestQuietAccessAndHotRefs:
    """hot_refs — the replay kernel's view of a cache's live storage."""

    def test_hot_refs_expose_live_storage(self):
        c = small_cache()
        sets, dirty, line_shift, n_sets = c.hot_refs()
        c.access(0x1000, is_write=True)
        line = 0x1000 >> line_shift
        assert sets[line % n_sets][0] == line
        assert line in dirty
        c.access(0x1000 + n_sets * 64)  # same set: the line drops below MRU
        assert sets[line % n_sets][1] == line

    def test_hot_refs_must_be_refetched_after_flush(self):
        """flush() rebinds the storage, invalidating old refs."""
        c = small_cache()
        old_sets, old_dirty = c.hot_refs()[:2]
        c.flush()
        assert c.hot_refs()[0] is not old_sets
        assert c.hot_refs()[1] is not old_dirty
