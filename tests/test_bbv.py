"""Tests for BBV tracking: the hash, register file, and vector math."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BbvTracker, ReducedBbvHash, WideBbvHash
from repro.signals.vector import (
    angle_between,
    l2_norm,
    manhattan_distance,
)
from repro.errors import ConfigurationError
from repro.isa import Instruction, Op
from repro.program.block import BasicBlock
from repro.program.stream import BlockRun
from conftest import record_event
from scalar_reference import record as scalar_record, registers


def make_block(bid: int, address: int, n_ops: int = 8) -> BasicBlock:
    insts = [Instruction(Op.IALU, dst=1, src1=0) for _ in range(n_ops - 1)]
    insts.append(Instruction(Op.BRANCH, src1=1))
    return BasicBlock(bid, address, insts)


class TestReducedHash:
    def test_five_bits_default(self):
        h = ReducedBbvHash()
        assert len(h.bit_positions) == 5
        assert h.n_buckets == 32

    def test_deterministic_for_seed(self):
        assert (
            ReducedBbvHash(seed=1).bit_positions
            == ReducedBbvHash(seed=1).bit_positions
        )

    def test_different_seeds_pick_different_bits(self):
        picks = {tuple(ReducedBbvHash(seed=s).bit_positions) for s in range(10)}
        assert len(picks) > 1

    def test_output_range(self):
        h = ReducedBbvHash(seed=3)
        for addr in range(0, 1 << 16, 97):
            assert 0 <= h(addr) < 32

    def test_bits_extracted_correctly(self):
        h = ReducedBbvHash(seed=0)
        addr = 0
        for shift, pos in enumerate(h.bit_positions):
            addr |= 1 << pos
        assert h(addr) == 31  # all selected bits set
        assert h(0) == 0

    def test_rejects_too_many_bits(self):
        with pytest.raises(ConfigurationError):
            ReducedBbvHash(n_bits=10, lo=2, hi=8)


class TestWideHash:
    def test_range(self):
        h = WideBbvHash(n_buckets=1024)
        for addr in range(0, 1 << 16, 61):
            assert 0 <= h(addr) < 1024

    def test_spreads_addresses(self):
        h = WideBbvHash(n_buckets=256)
        buckets = {h(0x1000 + i * 4) for i in range(512)}
        assert len(buckets) > 100

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            WideBbvHash(n_buckets=1)


class TestTracker:
    def test_taken_branch_credits_bucket(self):
        tracker = BbvTracker()
        block = make_block(0, 0x1000, n_ops=8)
        record_event(tracker, block, taken=True)
        vec = tracker.take_vector(normalize=False)
        assert vec.sum() == 8
        assert vec[tracker.bucket_for(block)] == 8

    def test_untaken_run_credited_to_next_taken(self):
        """Fig. 4 semantics: ops since the last taken branch accumulate
        and land in the bucket of the branch that ends the run."""
        tracker = BbvTracker()
        a = make_block(0, 0x1000, n_ops=8)
        b = make_block(1, 0x4000, n_ops=6)
        record_event(tracker, a, taken=False)
        record_event(tracker, b, taken=True)
        vec = tracker.take_vector(normalize=False)
        assert vec[tracker.bucket_for(b)] == 14
        assert vec.sum() == 14

    def test_trailing_untaken_run_not_counted_in_vector(self):
        tracker = BbvTracker()
        a = make_block(0, 0x1000, n_ops=8)
        record_event(tracker, a, taken=False)
        assert tracker.take_vector(normalize=False).sum() == 0

    def test_take_vector_resets(self):
        tracker = BbvTracker()
        block = make_block(0, 0x1000)
        record_event(tracker, block, taken=True)
        tracker.take_vector()
        assert registers(tracker).sum() == 0

    def test_take_vector_normalized(self):
        tracker = BbvTracker()
        record_event(tracker, make_block(0, 0x1000), taken=True)
        record_event(tracker, make_block(1, 0x8000), taken=True)
        vec = tracker.take_vector(normalize=True)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_total_ops_counts_everything(self):
        tracker = BbvTracker()
        record_event(tracker, make_block(0, 0x1000, 8), taken=True)
        record_event(tracker, make_block(1, 0x2000, 6), taken=False)
        assert tracker.total_ops == 14

    def test_bucket_cache_consistent(self):
        tracker = BbvTracker()
        block = make_block(0, 0x1234)
        assert tracker.bucket_for(block) == tracker.hash_fn(block.branch_address)
        assert tracker.bucket_for(block) == tracker.bucket_for(block)

    def test_snapshot_restore(self):
        tracker = BbvTracker()
        record_event(tracker, make_block(0, 0x1000), taken=True)
        record_event(tracker, make_block(1, 0x2000), taken=False)
        snap = tracker.snapshot()
        record_event(tracker, make_block(2, 0x3000), taken=True)
        tracker.restore(snap)
        vec = tracker.take_vector(normalize=False)
        assert vec.sum() == 8  # only the first taken block

    def test_reset(self):
        tracker = BbvTracker()
        record_event(tracker, make_block(0, 0x1000), taken=True)
        tracker.reset()
        assert tracker.total_ops == 0
        assert registers(tracker).sum() == 0

    def test_wide_tracker(self):
        tracker = BbvTracker(WideBbvHash(128))
        assert tracker.n_buckets == 128
        record_event(tracker, make_block(0, 0x1000), taken=True)
        assert tracker.take_vector(normalize=False).sum() == 8

    def test_matches_naive_reference_model(self):
        """Oracle test: the tracker's register file equals a naive
        re-implementation of the Fig. 4 semantics over a random event
        sequence."""
        import random

        rng = random.Random(99)
        blocks = [make_block(i, 0x1000 + i * 0x940, n_ops=4 + i) for i in range(6)]
        tracker = BbvTracker()
        reference = [0.0] * 32
        run_ops = 0
        for _ in range(500):
            block = rng.choice(blocks)
            taken = rng.random() < 0.8
            record_event(tracker, block, taken)
            if taken:
                reference[tracker.hash_fn(block.branch_address)] += (
                    run_ops + block.n_ops
                )
                run_ops = 0
            else:
                run_ops += block.n_ops
        assert registers(tracker).tolist() == reference


def _runs_to_events(runs):
    return [(run.block, taken) for run in runs for _, taken, _ in run.events()]


def _random_runs(rng, blocks, n_runs):
    """Generate a mixed batch of loop-style and random-branch runs."""
    runs = []
    ks = {}
    for _ in range(n_runs):
        block = rng.choice(blocks)
        n = rng.randint(1, 9)
        k = ks.get(block.bid, 0)
        ks[block.bid] = k + n
        if rng.random() < 0.5:
            runs.append(BlockRun(block, n, k, rng.random() < 0.7, None))
        else:
            takens = tuple(rng.random() < 0.6 for _ in range(n))
            runs.append(BlockRun(block, n, k, False, takens))
    return runs


class TestRecordBatch:
    def test_matches_scalar_record(self):
        """Oracle: record_batch equals the scalar reference's per-event
        record, bit for bit."""
        import random

        rng = random.Random(4242)
        blocks = [make_block(i, 0x1000 + i * 0x1234, n_ops=3 + i) for i in range(7)]
        for trial in range(20):
            runs = _random_runs(rng, blocks, rng.randint(1, 12))
            scalar, batched = BbvTracker(), BbvTracker()
            for block, taken in _runs_to_events(runs):
                scalar_record(scalar, block, taken)
            batched.record_batch(runs)
            assert registers(scalar).tolist() == registers(batched).tolist()
            assert scalar.total_ops == batched.total_ops
            assert scalar._run_ops == batched._run_ops

    def test_run_counter_carries_across_batches(self):
        """The ops-since-last-taken counter survives batch boundaries."""
        import random

        rng = random.Random(99)
        blocks = [make_block(i, 0x2000 + i * 0x890, n_ops=5) for i in range(4)]
        scalar, batched = BbvTracker(), BbvTracker()
        for _ in range(6):
            runs = _random_runs(rng, blocks, 4)
            for block, taken in _runs_to_events(runs):
                scalar_record(scalar, block, taken)
            batched.record_batch(runs)
        assert registers(scalar).tolist() == registers(batched).tolist()
        assert scalar._run_ops == batched._run_ops

    def test_empty_batch_is_noop(self):
        tracker = BbvTracker()
        tracker.record_batch([])
        assert tracker.total_ops == 0
        assert registers(tracker).sum() == 0

    def test_all_untaken_batch_accumulates_run_ops(self):
        tracker = BbvTracker()
        block = make_block(0, 0x1000, n_ops=8)
        takens = (False, False, False)
        tracker.record_batch([BlockRun(block, 3, 0, False, takens)])
        assert tracker.total_ops == 24
        assert registers(tracker).sum() == 0
        assert tracker._run_ops == 24

    def test_interleaves_with_scalar_record(self):
        """The scalar reference and record_batch share one tracker state:
        a run counter left by one carries into the other."""
        a = make_block(0, 0x1000, n_ops=8)
        b = make_block(1, 0x4000, n_ops=6)
        tracker = BbvTracker()
        scalar_record(tracker, a, taken=False)
        tracker.record_batch([BlockRun(b, 1, 0, False, (True,))])
        vec = tracker.take_vector(normalize=False)
        assert vec[tracker.bucket_for(b)] == 14
        assert vec.sum() == 14

    def test_works_with_wide_hash(self):
        tracker = BbvTracker(WideBbvHash(128))
        block = make_block(0, 0x1000, n_ops=8)
        tracker.record_batch([BlockRun(block, 4, 0, True, None)])
        vec = tracker.take_vector(normalize=False)
        assert vec[tracker.bucket_for(block)] == 24  # 3 taken iterations
        assert tracker.total_ops == 32


class TestVectorMath:
    def test_l2_norm(self):
        assert l2_norm([3.0, 4.0]) == pytest.approx(5.0)
        assert l2_norm([0.0, 0.0]) == 0.0

    def test_angle_identical_is_zero(self):
        assert angle_between([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-9)

    def test_angle_orthogonal_is_pi_over_two(self):
        assert angle_between([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_angle_zero_vs_nonzero(self):
        assert angle_between([0, 0], [1, 0]) == pytest.approx(math.pi / 2)
        assert angle_between([0, 0], [0, 0]) == 0.0

    def test_manhattan(self):
        assert manhattan_distance([1, 2], [3, 0]) == pytest.approx(4.0)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=32),
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_angle_bounds_for_nonnegative_vectors(self, a, b):
        n = min(len(a), len(b))
        angle = angle_between(a[:n], b[:n])
        assert -1e-9 <= angle <= math.pi / 2 + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_angle_scale_invariant(self, a):
        scaled = [x * 7.5 for x in a]
        assert angle_between(a, scaled) == pytest.approx(0.0, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=4, max_size=16),
        st.lists(st.floats(min_value=0, max_value=100), min_size=4, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_angle_symmetric(self, a, b):
        n = min(len(a), len(b))
        assert angle_between(a[:n], b[:n]) == pytest.approx(
            angle_between(b[:n], a[:n]), abs=1e-9
        )

    def test_cosine_clipping_against_rounding(self):
        # For this vector against itself, float64 rounding puts the cosine
        # just above one, where acos would raise: the clamp must catch it.
        v = np.array([0.6706244146936303, 0.6471895115742501])
        norm = l2_norm(v)
        assert float(np.dot(v, v) / (norm * norm)) > 1.0
        assert angle_between(v, v) == 0.0
