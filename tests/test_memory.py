"""Tests for the cache model and the two-level hierarchy."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CacheConfig, DEFAULT_MACHINE
from repro.errors import SnapshotError
from repro.memory import Cache, CacheHierarchy


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
        assert c.contains(a)
        assert not c.contains(b)
        assert c.contains(d)

    def test_hit_refreshes_lru(self):
        c = small_cache(assoc=2, sets=1)
        a, b, d = 0x0, 0x40, 0x80
        c.access(a)
        c.access(b)      # order: b, a
        c.access(a)      # order: a, b
        c.access(d)      # evicts b, not a
        assert c.contains(a) and not c.contains(b)

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
        assert not c.contains(0x0)
        assert c.resident_lines() == 0

    def test_contains_is_side_effect_free(self):
        c = small_cache()
        c.access(0x0)
        before = c.stats.accesses
        c.contains(0x0)
        assert c.stats.accesses == before

    def test_snapshot_restore_roundtrip(self):
        c = small_cache()
        for addr in (0x0, 0x40, 0x80, 0x1000):
            c.access(addr, is_write=addr == 0x40)
        snap = c.snapshot()
        c.access(0x2000)
        c.access(0x2040)
        c.restore(snap)
        assert c.contains(0x0)
        # The restored state must behave identically going forward.
        assert c.access(0x40) is True

    def test_restore_rejects_wrong_geometry(self):
        c1 = small_cache(assoc=2, sets=4)
        c2 = small_cache(assoc=4, sets=4)
        with pytest.raises(SnapshotError):
            c2.restore(c1.snapshot())

    def test_capacity_bounded(self):
        c = small_cache(assoc=2, sets=4)
        for i in range(100):
            c.access(i * 64)
        assert c.resident_lines() <= 8


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_resident_never_exceeds_capacity(self, addrs):
        c = small_cache(assoc=2, sets=4)
        for addr in addrs:
            c.access(addr)
        assert c.resident_lines() <= 8

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
        h.access_data(0x1000)
        res = h.access_data(0x1000)
        assert res.level == 1
        assert res.latency == DEFAULT_MACHINE.l1d.hit_latency

    def test_miss_goes_to_memory_first_time(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        res = h.access_data(0x1000)
        assert res.level == 3
        assert res.latency == (
            DEFAULT_MACHINE.l1d.hit_latency
            + DEFAULT_MACHINE.l2.hit_latency
            + DEFAULT_MACHINE.memory_latency
        )

    def test_l2_hit_after_l1_eviction(self):
        machine = DEFAULT_MACHINE.scaled_cache(1, 1024)  # tiny 1 KB L1
        h = CacheHierarchy(machine)
        h.access_data(0x0)
        # Blow the 16-line L1 with conflicting lines; L2 keeps everything.
        for i in range(1, 64):
            h.access_data(i * 1024)
        res = h.access_data(0x0)
        assert res.level == 2

    def test_split_l1_sides_are_independent(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        h.access_data(0x1000)
        res = h.access_inst(0x1000)
        # Same address on the I-side does not hit the D-side L1 (it does
        # hit the unified L2).
        assert res.level == 2

    def test_warm_matches_access_state(self):
        h1 = CacheHierarchy(DEFAULT_MACHINE)
        h2 = CacheHierarchy(DEFAULT_MACHINE)
        addrs = [0x0, 0x40, 0x1000, 0x0, 0x40400, 0x1000]
        for a in addrs:
            h1.access_data(a)
            h2.warm_data(a)
        assert h1.snapshot() == h2.snapshot()

    def test_memory_access_counter(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        h.access_data(0x0)
        h.access_data(0x0)
        assert h.memory_accesses == 1

    def test_snapshot_restore(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        for i in range(32):
            h.access_data(i * 64)
        snap = h.snapshot()
        h.flush()
        h.restore(snap)
        assert h.access_data(0x0).level == 1

    def test_reset_stats(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        h.access_data(0x0)
        h.access_inst(0x0)
        h.reset_stats()
        assert h.l1d.stats.accesses == 0
        assert h.l1i.stats.accesses == 0
        assert h.memory_accesses == 0

    def test_stats_summary_keys(self):
        h = CacheHierarchy(DEFAULT_MACHINE)
        assert set(h.stats_summary()) == {"L1I", "L1D", "L2"}


def _geometry():
    """A cache geometry: 1-8 ways, any set count, 32- or 64-byte lines."""
    return st.builds(
        lambda assoc, sets, line: CacheConfig(assoc * sets * line, assoc, line),
        st.sampled_from((1, 2, 4, 8)),
        st.integers(min_value=1, max_value=12),
        st.sampled_from((32, 64)),
    )


def _warm_counters(h):
    return (
        [(c.stats.accesses, c.stats.hits, c.stats.writebacks) for c in (h.l1i, h.l1d, h.l2)],
        h.memory_accesses,
    )


class TestWarmDataRun:
    """The replay kernel against a loop of per-access warm_data calls."""

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
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_warm_data_loop(self, l1d, l2, salt, chunks):
        machine = dataclasses.replace(DEFAULT_MACHINE, l1d=l1d, l2=l2)
        kernel, loop = CacheHierarchy(machine, address_salt=salt), CacheHierarchy(
            machine, address_salt=salt
        )
        others = [
            CacheHierarchy(machine, shared_l2=h.l2, address_salt=salt ^ (1 << 37))
            for h in (kernel, loop)
        ]
        for other_core, ops in chunks:
            addrs = [addr for addr, _ in ops]
            writes = [w for _, w in ops]
            if other_core:
                for other in others:
                    for addr, w in ops:
                        other.warm_data(addr, w)
                continue
            kernel.warm_data_run(addrs, writes)
            for addr, w in ops:
                loop.warm_data(addr, w)
        assert kernel.snapshot() == loop.snapshot()
        assert _warm_counters(kernel) == _warm_counters(loop)
        assert others[0].snapshot() == others[1].snapshot()
        assert _warm_counters(others[0]) == _warm_counters(others[1])

    def test_short_write_flags_count_only_applied_accesses(self):
        """Accesses past the end of a short *writes* are not applied, so
        the counters must not count them either."""
        kernel = CacheHierarchy(DEFAULT_MACHINE)
        loop = CacheHierarchy(DEFAULT_MACHINE)
        addrs = [i * 4096 for i in range(40)] * 2
        writes = [i % 2 == 1 for i in range(50)]
        kernel.warm_data_run(addrs, writes)
        for addr, w in zip(addrs, writes):
            loop.warm_data(addr, w)
        assert kernel.snapshot() == loop.snapshot()
        assert _warm_counters(kernel) == _warm_counters(loop)
        assert kernel.l1d.stats.accesses == 50


class TestQuietAccessAndHotRefs:
    """access_quiet / hot_refs — the batched pipeline's inline primitives."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x4000), st.booleans()
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_access_quiet_matches_access_state(self, ops):
        """Same transitions and writebacks as access(), counters aside."""
        loud = small_cache(assoc=2, sets=4)
        quiet = small_cache(assoc=2, sets=4)
        for addr, is_write in ops:
            assert loud.access(addr, is_write) == quiet.access_quiet(
                addr, is_write
            )
        assert loud.snapshot() == quiet.snapshot()
        assert loud.stats.writebacks == quiet.stats.writebacks
        assert quiet.stats.accesses == 0 and quiet.stats.hits == 0

    def test_hot_refs_expose_live_storage(self):
        c = small_cache()
        tags, dirty, line_shift, assoc, pow2, set_mask, n_sets = c.hot_refs()
        c.access(0x1000, is_write=True)
        line = 0x1000 >> line_shift
        base = (line & set_mask if pow2 else line % n_sets) * assoc
        assert tags[base] == line
        assert dirty[base] is True

    def test_hot_refs_must_be_refetched_after_flush(self):
        """flush() rebinds the storage lists, invalidating old refs."""
        c = small_cache()
        old_tags = c.hot_refs()[0]
        c.flush()
        assert c.hot_refs()[0] is not old_tags


class TestSilentProbes:
    """Net-silence probes versus the execute-and-compare oracle.

    An iteration is net-silent exactly when really executing its
    accesses leaves the cache byte-identical, so the reference replays
    iterations on a clone and diffs snapshots.  This covers both the
    per-access MRU-rest case and the shared-set case where individual
    accesses rotate the set but the iteration permutes it back.
    """

    SALTS = (0, 1 << 36)

    def _brute_span(self, cache, accesses, k_start, limit, salt):
        """accesses: (addr_of(k), is_write) pairs, program order."""
        clone = Cache(cache.config, name="clone")
        clone.restore(cache.snapshot())
        m = 0
        while m < limit:
            before = clone.snapshot()
            for addr_of, w in accesses:
                clone.access_quiet(addr_of(k_start + m) ^ salt, w)
            if clone.snapshot() != before:
                break
            m += 1
        return m

    @pytest.mark.parametrize("salt", SALTS)
    @pytest.mark.parametrize("is_write", (False, True))
    def test_strided_span_matches_oracle(self, salt, is_write):
        from repro.program import MemPattern, PatternKind

        cache = small_cache(assoc=4, sets=8)
        pat = MemPattern(
            PatternKind.REUSE, base=0x8000, span=1024, stride=48,
            is_write=is_write,
        )
        # Warm an arbitrary prefix of the footprint (real accesses so the
        # MRU/dirty state is whatever access() leaves behind).
        for k in range(11):
            cache.access(pat.address(k) ^ salt, is_write)
        for k_start in range(0, 40, 7):
            got = cache.silent_span_strided(
                pat.base, pat.stride, pat.span, k_start, 64, is_write, salt
            )
            want = self._brute_span(
                cache, [(pat.address, is_write)], k_start, 64, salt
            )
            assert got == want

    @pytest.mark.parametrize("salt", SALTS)
    def test_hashed_span_matches_oracle(self, salt):
        from repro.program import MemPattern, PatternKind

        cache = small_cache(assoc=4, sets=8)
        pat = MemPattern(PatternKind.RANDOM, base=0x8000, span=512, stride=7)
        for k in range(64):
            cache.access(pat.address(k) ^ salt)
        for k_start in range(0, 48, 5):
            got = cache.silent_span_hashed(
                pat.address, k_start, 32, False, salt
            )
            want = self._brute_span(
                cache, [(pat.address, False)], k_start, 32, salt
            )
            assert got == want

    @given(
        st.integers(min_value=8, max_value=96),   # stride 1
        st.integers(min_value=8, max_value=96),   # stride 2
        st.booleans(),                            # write 1
        st.booleans(),                            # write 2
        st.integers(min_value=0, max_value=24),   # warm iterations
        st.integers(min_value=0, max_value=16),   # probe start
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_span_matches_block_span_and_oracle(
        self, s1, s2, w1, w2, warm, k_start
    ):
        """The unrolled two-access walk equals the general walk and the
        oracle for any geometry, including set- and line-sharing pairs."""
        from repro.program import MemPattern, PatternKind

        p1 = MemPattern(
            PatternKind.STREAM, base=0x4000, span=2048, stride=s1, is_write=w1
        )
        p2 = MemPattern(
            PatternKind.REUSE, base=0x4400, span=512, stride=s2, is_write=w2
        )
        progs = (
            (p1.base, p1.stride, p1.span, p1.is_write),
            (p2.base, p2.stride, p2.span, p2.is_write),
        )
        salt = 1 << 36
        cache = small_cache(assoc=4, sets=8)
        for k in range(warm):
            cache.access(p1.address(k) ^ salt, w1)
            cache.access(p2.address(k) ^ salt, w2)
        snap = cache.snapshot()
        got_pair = cache.silent_block_pair_span(
            progs[0], progs[1], k_start, 40, salt
        )
        got_block = cache.silent_block_span(progs, k_start, 40, salt)
        want = self._brute_span(
            cache, [(p1.address, w1), (p2.address, w2)], k_start, 40, salt
        )
        assert got_pair == got_block == want
        assert cache.snapshot() == snap  # probes are side-effect free
