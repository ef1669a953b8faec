"""Focused tests for the functional-warming executor."""

import dataclasses

import pytest

from repro import DEFAULT_MACHINE
from repro.branch import GsharePredictor
from repro.config import CacheConfig
from repro.cpu.functional import FunctionalWarmer
from repro.isa import Instruction, Op
from repro.memory import CacheHierarchy
from repro.program import MemPattern, PatternKind
from repro.program.block import BasicBlock
from repro.program.stream import BlockEvent, BlockRun
from scalar_reference import contains, warm_event


@pytest.fixture()
def warmer():
    hierarchy = CacheHierarchy(DEFAULT_MACHINE)
    predictor = GsharePredictor(12)
    return FunctionalWarmer(hierarchy, predictor)


def make_event(taken=True, k=0, with_load=True):
    pats = []
    insts = []
    if with_load:
        pats = [MemPattern(PatternKind.STREAM, base=0x400000, span=1 << 16, stride=64)]
        insts.append(Instruction(Op.LOAD, dst=1, src1=0, mem_index=0))
    insts.append(Instruction(Op.IALU, dst=2, src1=1))
    insts.append(Instruction(Op.BRANCH, src1=2))
    block = BasicBlock(0, 0x2000, insts, pats)
    return BlockEvent(block, taken, k)


def warm(warmer, event):
    """One event as a one-iteration batch through the warmer."""
    block, taken, k = event
    warmer.execute_batch([BlockRun(block, 1, k, ends_entry=not taken)])


class TestFunctionalWarmer:
    def test_warms_icache(self, warmer):
        warm(warmer, make_event())
        assert contains(warmer.hierarchy.l1i, 0x2000)

    def test_warms_dcache_with_pattern_address(self, warmer):
        event = make_event(k=3)
        warm(warmer, event)
        addr = event.block.mem_patterns[0].address(3)
        assert contains(warmer.hierarchy.l1d, addr)

    def test_updates_predictor(self, warmer):
        warm(warmer, make_event(taken=True))
        assert warmer.predictor.stats.predictions == 1

    def test_execution_count_advances_addresses(self, warmer):
        e0 = make_event(k=0)
        e1 = make_event(k=1)
        a0 = e0.block.mem_patterns[0].address(0)
        a1 = e1.block.mem_patterns[0].address(1)
        assert a0 != a1
        warm(warmer, e0)
        warm(warmer, e1)
        assert contains(warmer.hierarchy.l1d, a0)
        assert contains(warmer.hierarchy.l1d, a1)

    def test_store_pattern_marks_write(self, warmer):
        pats = [
            MemPattern(
                PatternKind.REUSE, base=0x500000, span=64, stride=8, is_write=True
            )
        ]
        insts = [
            Instruction(Op.STORE, src1=1, src2=2, mem_index=0),
            Instruction(Op.BRANCH, src1=1),
        ]
        block = BasicBlock(0, 0x3000, insts, pats)
        warm(warmer, BlockEvent(block, True, 0))
        # Evicting the line must produce a writeback (it is dirty).
        stats = warmer.hierarchy.l1d.stats
        assert stats.accesses == 1

    def test_no_timing_state(self, warmer):
        """Warming must not require or mutate any pipeline object."""
        for k in range(50):
            warm(warmer, make_event(k=k))
        # Only caches and predictor were touched; nothing else to assert —
        # the absence of a pipeline dependency is the contract.
        assert warmer.hierarchy.l1d.stats.accesses == 50


def _warm_state(warmer):
    h = warmer.hierarchy
    return (
        h.snapshot(),
        [(c.stats.accesses, c.stats.hits, c.stats.writebacks) for c in (h.l1i, h.l1d, h.l2)],
        h.memory_accesses,
        warmer.predictor.snapshot(),
    )


class TestExecuteBatch:
    def test_l1i_miss_between_data_accesses_keeps_l2_order(self):
        """A cold fetch of block B lands between block A's data accesses,
        all in the one set of a 2-way L2.  A's loads alternate two lines
        through a one-line L1D, so every load reaches the L2, and whether
        the load after B's fetch hits there depends on B's fetch coming
        first.  Data replayed only after all fetches would hit it."""
        machine = dataclasses.replace(
            DEFAULT_MACHINE, l1d=CacheConfig(64, 1), l2=CacheConfig(128, 2)
        )
        load = [Instruction(Op.LOAD, dst=1, src1=0, mem_index=0), Instruction(Op.BRANCH)]
        a = BasicBlock(
            0, 0x2000, load, [MemPattern(PatternKind.REUSE, base=0x400000, span=128)]
        )
        b = BasicBlock(1, 0x8000, [Instruction(Op.BRANCH)])
        runs = [BlockRun(a, 2, 0, False), BlockRun(b, 1, 0, True), BlockRun(a, 2, 2, True)]
        batched, scalar = (
            FunctionalWarmer(CacheHierarchy(machine), GsharePredictor(12)) for _ in range(2)
        )
        batched.execute_batch(runs)
        for run in runs:
            for event in run.events():
                warm_event(scalar, event)
        assert _warm_state(batched) == _warm_state(scalar)
        assert scalar.hierarchy.l2.stats.hits == 0
