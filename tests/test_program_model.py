"""Tests for memory patterns, blocks, behaviors and programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Behavior,
    BlockBuilder,
    MemPattern,
    PatternKind,
    Program,
    ProgramError,
    Segment,
)
from repro.isa import Instruction, Op
from repro.program.block import BasicBlock


class TestMemPattern:
    def test_stream_advances_by_stride(self):
        p = MemPattern(PatternKind.STREAM, base=0x1000, span=1 << 20, stride=8)
        assert p.address(0) == 0x1000
        assert p.address(1) == 0x1008
        assert p.address(10) == 0x1050

    def test_stream_wraps_at_span(self):
        p = MemPattern(PatternKind.STREAM, base=0, span=64, stride=8)
        assert p.address(8) == p.address(0)

    def test_reuse_stays_in_span(self):
        p = MemPattern(PatternKind.REUSE, base=0x100, span=256, stride=8)
        for k in range(1000):
            assert 0x100 <= p.address(k) < 0x100 + 256

    def test_random_stays_in_span(self):
        p = MemPattern(PatternKind.RANDOM, base=0x1000, span=4096, seed=7)
        for k in range(1000):
            assert 0x1000 <= p.address(k) < 0x1000 + 4096

    def test_random_is_deterministic(self):
        p = MemPattern(PatternKind.RANDOM, base=0, span=1 << 20, seed=3)
        assert [p.address(k) for k in range(50)] == [p.address(k) for k in range(50)]

    def test_random_addresses_revisit_lines(self):
        """The avalanche hash must produce statistical reuse, not a
        collision-free permutation (the bug class DESIGN.md notes)."""
        p = MemPattern(PatternKind.RANDOM, base=0, span=256 * 1024, seed=1)
        lines = {p.address(k) >> 6 for k in range(8000)}
        # A bijection would give ~4096 distinct lines; birthday-style
        # collisions must keep it clearly below the ceiling.
        assert len(lines) < 3900

    def test_random_eight_byte_aligned(self):
        p = MemPattern(PatternKind.RANDOM, base=0, span=1 << 16, seed=9)
        assert all(p.address(k) % 8 == 0 for k in range(200))

    def test_chase_serialises(self):
        assert MemPattern(PatternKind.CHASE, base=0, span=64).serialises
        assert not MemPattern(PatternKind.RANDOM, base=0, span=64).serialises

    def test_rejects_zero_span(self):
        with pytest.raises(ProgramError):
            MemPattern(PatternKind.STREAM, base=0, span=0)

    def test_rejects_zero_stride_for_stream(self):
        with pytest.raises(ProgramError):
            MemPattern(PatternKind.STREAM, base=0, span=64, stride=0)

    @given(st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=100, deadline=None)
    def test_any_k_stays_in_region(self, k):
        for kind in PatternKind:
            p = MemPattern(kind, base=1 << 26, span=8192, stride=16, seed=5)
            assert (1 << 26) <= p.address(k) < (1 << 26) + 8192


class TestBasicBlock:
    def test_must_end_in_branch(self):
        with pytest.raises(ProgramError):
            BasicBlock(0, 0x1000, [Instruction(Op.IALU, dst=1, src1=2)])

    def test_only_terminator_branches(self):
        insts = [
            Instruction(Op.BRANCH, src1=1),
            Instruction(Op.BRANCH, src1=1),
        ]
        with pytest.raises(ProgramError):
            BasicBlock(0, 0x1000, insts)

    def test_pattern_count_must_match(self):
        insts = [
            Instruction(Op.LOAD, dst=1, src1=2, mem_index=0),
            Instruction(Op.BRANCH, src1=1),
        ]
        with pytest.raises(ProgramError):
            BasicBlock(0, 0x1000, insts, mem_patterns=[])

    @pytest.mark.parametrize(
        "uses, n_patterns",
        [((1, 0), 2), ((0, 0), 2), ((0,), 2)],
        ids=("out-of-order", "shared", "unused"),
    )
    def test_memory_instructions_use_patterns_in_order(self, uses, n_patterns):
        """Instruction order and pattern order must agree: the batched
        paths generate addresses in one and consume latencies in the
        other."""
        insts = [Instruction(Op.LOAD, dst=1, src1=2, mem_index=j) for j in uses]
        insts.append(Instruction(Op.BRANCH, src1=1))
        pats = [
            MemPattern(PatternKind.REUSE, base=0x1000 * (j + 1), span=256)
            for j in range(n_patterns)
        ]
        with pytest.raises(ProgramError):
            BasicBlock(0, 0x1000, insts, mem_patterns=pats)
        in_order = [
            Instruction(Op.LOAD, dst=1, src1=2, mem_index=j)
            for j in range(n_patterns)
        ]
        in_order.append(Instruction(Op.BRANCH, src1=1))
        assert BasicBlock(0, 0x1000, in_order, mem_patterns=pats).mem_positions

    def test_branch_address(self):
        insts = [
            Instruction(Op.IALU, dst=1, src1=2),
            Instruction(Op.BRANCH, src1=1),
        ]
        block = BasicBlock(3, 0x1000, insts)
        assert block.branch_address == 0x1004
        assert block.n_ops == 2

    def test_compiled_arrays_consistent(self):
        insts = [
            Instruction(Op.IALU, dst=1, src1=2),
            Instruction(Op.BRANCH, src1=1),
        ]
        block = BasicBlock(0, 0x1000, insts)
        assert block.ops == [int(Op.IALU), int(Op.BRANCH)]
        assert block.dsts == [1, -1]
        assert block.src2s == [-1, -1]

    def test_inst_lines_cover_block(self):
        insts = [Instruction(Op.IALU, dst=1, src1=2)] * 31 + [
            Instruction(Op.BRANCH, src1=1)
        ]
        block = BasicBlock(0, 0x1000, insts)  # 32 insts * 4B = 128B = 2 lines
        assert block.inst_lines == [0x1000, 0x1040]

    def test_rejects_bad_taken_prob(self):
        insts = [Instruction(Op.BRANCH, src1=1)]
        with pytest.raises(ProgramError):
            BasicBlock(0, 0x1000, insts, random_taken_prob=1.5)


class TestBlockBuilder:
    def test_deterministic_given_seed(self):
        b1 = BlockBuilder(seed=9)
        b2 = BlockBuilder(seed=9)
        blk1 = b1.build(16, mix="int", dep_density=0.3)
        blk2 = b2.build(16, mix="int", dep_density=0.3)
        assert blk1.ops == blk2.ops
        assert blk1.dsts == blk2.dsts
        assert blk1.address == blk2.address

    def test_different_seeds_differ(self):
        blk1 = BlockBuilder(seed=1).build(16, mix="int")
        blk2 = BlockBuilder(seed=2).build(16, mix="int")
        assert blk1.ops != blk2.ops or blk1.src1s != blk2.src1s

    def test_requested_op_count(self, builder):
        blk = builder.build(20, mix="mixed")
        assert blk.n_ops == 20

    def test_mem_patterns_all_placed(self, builder):
        pats = [
            builder.pattern(PatternKind.STREAM, 4096),
            builder.pattern(PatternKind.REUSE, 4096, is_write=True),
        ]
        blk = builder.build(16, mem_patterns=pats)
        mem_ops = [op for op in blk.ops if op in (int(Op.LOAD), int(Op.STORE))]
        assert len(mem_ops) == 2
        assert int(Op.STORE) in mem_ops

    def test_chase_load_self_depends(self, builder):
        pats = [builder.pattern(PatternKind.CHASE, 1 << 20)]
        blk = builder.build(12, mem_patterns=pats)
        loads = [i for i in blk.instructions if i.op is Op.LOAD]
        assert len(loads) == 1
        assert loads[0].dst == loads[0].src1

    def test_loads_are_consumed(self, builder):
        """Every non-chase load's destination is read by a later
        instruction in the same block (the IPC-determinism guarantee)."""
        pats = [builder.pattern(PatternKind.RANDOM, 1 << 20) for _ in range(3)]
        blk = builder.build(20, mem_patterns=pats)
        for pos, inst in enumerate(blk.instructions):
            if inst.op is Op.LOAD:
                consumed = any(
                    later.src1 == inst.dst or later.src2 == inst.dst
                    for later in blk.instructions[pos + 1 :]
                )
                assert consumed, f"load at {pos} never consumed"

    def test_unknown_mix_rejected(self, builder):
        with pytest.raises(ProgramError):
            builder.build(16, mix="nope")

    def test_too_small_for_patterns_rejected(self, builder):
        pats = [builder.pattern(PatternKind.STREAM, 4096) for _ in range(5)]
        with pytest.raises(ProgramError):
            builder.build(5, mem_patterns=pats)

    def test_distinct_block_addresses(self, builder):
        blocks = [builder.build(16) for _ in range(20)]
        addresses = [b.branch_address for b in blocks]
        assert len(set(addresses)) == 20

    def test_addresses_spread_for_hash_bits(self, builder):
        """Blocks must scatter across enough address range that the 5-bit
        BBV hash can distinguish them (regression for the collision bug)."""
        blocks = [builder.build(16) for _ in range(10)]
        span = max(b.address for b in blocks) - min(b.address for b in blocks)
        assert span > 4096

    def test_region_bases_disjoint(self, builder):
        p1 = builder.pattern(PatternKind.STREAM, 1 << 20)
        p2 = builder.pattern(PatternKind.STREAM, 1 << 20)
        assert abs(p1.base - p2.base) >= 1 << 20


class TestBehavior:
    def test_entries_exposed(self, builder):
        blk = builder.build(16)
        beh = Behavior("x", [(blk, 10), (blk, (20, 5))])
        assert beh.entries == [(blk, 10, 0), (blk, 20, 5)]

    def test_rejects_empty(self):
        with pytest.raises(ProgramError):
            Behavior("x", [])

    def test_rejects_bad_iterations(self, builder):
        blk = builder.build(16)
        with pytest.raises(ProgramError):
            Behavior("x", [(blk, 0)])
        with pytest.raises(ProgramError):
            Behavior("x", [(blk, (5, 5))])

    def test_resolve_iters_fixed(self, builder):
        import random

        blk = builder.build(16)
        beh = Behavior("x", [(blk, 10)])
        assert beh.resolve_iters(0, random.Random(0)) == 10

    def test_resolve_iters_jitter_in_range(self, builder):
        import random

        blk = builder.build(16)
        beh = Behavior("x", [(blk, (10, 3))])
        rng = random.Random(0)
        draws = {beh.resolve_iters(0, rng) for _ in range(200)}
        assert draws <= set(range(7, 14))
        assert len(draws) > 1

    def test_blocks_deduplicated(self, builder):
        blk = builder.build(16)
        beh = Behavior("x", [(blk, 5), (blk, 7)])
        assert len(beh.blocks) == 1

    def test_mean_ops(self, builder):
        blk = builder.build(16)
        beh = Behavior("x", [(blk, 10)])
        assert sum(b.n_ops * iters for b, iters, _ in beh.entries) == 160


class TestProgram:
    def test_rejects_unknown_behavior_in_script(self, builder):
        blk = builder.build(16)
        beh = Behavior("a", [(blk, 5)])
        with pytest.raises(ProgramError):
            Program("p", [blk], [beh], [Segment("b", 1000)])

    def test_rejects_duplicate_behavior_names(self, builder):
        blk = builder.build(16)
        behs = [Behavior("a", [(blk, 5)]), Behavior("a", [(blk, 6)])]
        with pytest.raises(ProgramError):
            Program("p", [blk], behs, [Segment("a", 1000)])

    def test_rejects_bad_block_numbering(self, builder):
        blk1 = builder.build(16)
        blk2 = builder.build(16)
        beh = Behavior("a", [(blk1, 5)])
        with pytest.raises(ProgramError):
            Program("p", [blk2, blk1], [beh], [Segment("a", 1000)])

    def test_total_ops(self, builder):
        blk = builder.build(16)
        beh = Behavior("a", [(blk, 5)])
        prog = Program("p", [blk], [beh], [Segment("a", 1000), Segment("a", 500)])
        assert prog.total_ops == 1500

    def test_true_phase_at(self, builder):
        blk = builder.build(16)
        behs = [Behavior("a", [(blk, 5)]), Behavior("b", [(blk, 5)])]
        prog = Program(
            "p", [blk], behs, [Segment("a", 1000), Segment("b", 500)]
        )
        assert prog.true_phase_at(0) == "a"
        assert prog.true_phase_at(999) == "a"
        assert prog.true_phase_at(1000) == "b"
        assert prog.true_phase_at(10_000) == "b"

    def test_segment_rejects_nonpositive_ops(self):
        with pytest.raises(ProgramError):
            Segment("a", 0)
