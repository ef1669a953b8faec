"""Tests for the in-order pipeline's timing semantics.

Each test constructs a tiny hand-built block and checks the cycle count
against the architectural rule being exercised: issue width, dependence
stalls, functional-unit limits, cache-miss latency, MSHR back-pressure,
and branch-mispredict penalties.
"""

from repro import DEFAULT_MACHINE, MachineConfig
from repro.branch import BimodalPredictor
from repro.cpu.functional import FunctionalWarmer
from repro.cpu.pipeline import InOrderPipeline
from repro.isa import Instruction, Op
from repro.memory import CacheHierarchy
from repro.program import MemPattern, PatternKind
from repro.program.block import BasicBlock
from repro.program.stream import BlockRun

from scalar_reference import warm_data, warm_inst


def make_pipeline(machine: MachineConfig = DEFAULT_MACHINE):
    hierarchy = CacheHierarchy(machine)
    predictor = BimodalPredictor(machine.branch_history_bits)
    return InOrderPipeline(machine, hierarchy, predictor)


def execute(pipeline, block, taken=True, k=0):
    """One dynamic execution of *block* on the detailed path: the
    warmer's architectural pass, then the pipeline's timing replay."""
    warmer = FunctionalWarmer(pipeline.hierarchy, pipeline.predictor)
    run = BlockRun(block, 1, k, ends_entry=not taken)
    warmer.execute_batch([run], pipeline.replay)


def run_block(pipeline, instructions, mem_patterns=(), taken=True, k=0, bid=0):
    block = BasicBlock(bid, 0x1000, instructions, mem_patterns)
    start = pipeline.cycle
    execute(pipeline, block, taken, k)
    return pipeline.cycle - start


def independent_alus(n):
    """n IALU ops with no mutual dependences (distinct dst, zero sources)."""
    return [Instruction(Op.IALU, dst=1 + i % 30, src1=0, src2=0) for i in range(n)]


class TestIssueWidth:
    def test_four_wide_issue(self):
        """16 independent single-cycle ops + branch need ~4 cycles."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)  # pre-warm the I-line
        warm_inst(pipe.hierarchy, 0x1040)
        insts = independent_alus(15) + [Instruction(Op.BRANCH, src1=0)]
        cycles = run_block(pipe, insts)
        assert cycles <= 5

    def test_width_one_machine_serialises(self):
        machine = MachineConfig(issue_width=1)
        pipe = make_pipeline(machine)
        warm_inst(pipe.hierarchy, 0x1000)
        warm_inst(pipe.hierarchy, 0x1040)
        insts = independent_alus(15) + [Instruction(Op.BRANCH, src1=0)]
        cycles = run_block(pipe, insts)
        assert cycles >= 15


class TestDependences:
    def test_chain_serialises(self):
        """A dependence chain of IALU ops runs at one per cycle."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        warm_inst(pipe.hierarchy, 0x1040)
        insts = [Instruction(Op.IALU, dst=1, src1=0)] + [
            Instruction(Op.IALU, dst=1, src1=1) for _ in range(14)
        ] + [Instruction(Op.BRANCH, src1=1)]
        cycles = run_block(pipe, insts)
        assert cycles >= 14

    def test_long_latency_dependence(self):
        """A consumer of an FDIV waits its full latency."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        insts = [
            Instruction(Op.FDIV, dst=40, src1=0, src2=0),
            Instruction(Op.FALU, dst=41, src1=40),
            Instruction(Op.BRANCH, src1=0),
        ]
        cycles = run_block(pipe, insts)
        assert cycles >= Op.FDIV and cycles >= 16

    def test_zero_register_creates_no_dependence(self):
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        insts = [
            Instruction(Op.FDIV, dst=40, src1=0, src2=0),
            Instruction(Op.IALU, dst=1, src1=0, src2=0),  # reads r0, not f40
            Instruction(Op.BRANCH, src1=0),
        ]
        cycles = run_block(pipe, insts)
        assert cycles <= 3


class TestFunctionalUnits:
    def test_divide_unit_unpipelined(self):
        """Back-to-back independent IDIVs still serialise on the unit."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        insts = [
            Instruction(Op.IDIV, dst=1, src1=0, src2=0),
            Instruction(Op.IDIV, dst=2, src1=0, src2=0),
            Instruction(Op.IDIV, dst=3, src1=0, src2=0),
            Instruction(Op.BRANCH, src1=0),
        ]
        # The third divide cannot *issue* before the first two have each
        # occupied the unpipelined unit for their full latency.
        cycles = run_block(pipe, insts)
        assert cycles >= 2 * 12

    def test_fp_pool_limit(self):
        """More than 2 independent FALU per cycle is impossible."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        warm_inst(pipe.hierarchy, 0x1040)
        insts = [
            Instruction(Op.FALU, dst=32 + i, src1=0, src2=0) for i in range(8)
        ] + [Instruction(Op.BRANCH, src1=0)]
        # 8 FALU at 2 per cycle: the last one issues 3 cycles after the
        # first (issue pattern 2-2-2-2).
        cycles = run_block(pipe, insts)
        assert cycles >= 3

    def test_mem_port_limit(self):
        """At most 2 memory ops issue per cycle."""
        machine = DEFAULT_MACHINE
        pipe = make_pipeline(machine)
        warm_inst(pipe.hierarchy, 0x1000)
        pats = [
            MemPattern(PatternKind.REUSE, base=0x100000 * (i + 1), span=64, stride=8)
            for i in range(6)
        ]
        for pat in pats:  # pre-warm so latency is uniform
            warm_data(pipe.hierarchy, pat.address(0))
        insts = [
            Instruction(Op.LOAD, dst=1 + i, src1=0, mem_index=i) for i in range(6)
        ] + [Instruction(Op.BRANCH, src1=0)]
        cycles = run_block(pipe, insts, mem_patterns=pats)
        assert cycles >= 3


class TestMemoryTiming:
    def test_l1_hit_fast_l2_miss_slow(self):
        machine = DEFAULT_MACHINE
        pat = MemPattern(PatternKind.REUSE, base=0x200000, span=64, stride=8)
        insts = [
            Instruction(Op.LOAD, dst=1, src1=0, mem_index=0),
            Instruction(Op.IALU, dst=2, src1=1),
            Instruction(Op.BRANCH, src1=2),
        ]
        cold = make_pipeline(machine)
        warm_inst(cold.hierarchy, 0x1000)
        cold_cycles = run_block(cold, insts, mem_patterns=[pat])

        warm = make_pipeline(machine)
        warm_inst(warm.hierarchy, 0x1000)
        warm_data(warm.hierarchy, pat.address(0))
        warm_cycles = run_block(warm, insts, mem_patterns=[pat])

        assert cold_cycles - warm_cycles >= machine.memory_latency - 5

    def test_mshr_backpressure(self):
        """With 1 MSHR, independent misses serialise; with 8 they overlap."""
        def build(n_mshrs):
            machine = MachineConfig(n_mshrs=n_mshrs)
            pipe = make_pipeline(machine)
            warm_inst(pipe.hierarchy, 0x1000)
            pats = [
                MemPattern(PatternKind.REUSE, base=(1 + i) << 24, span=64)
                for i in range(4)
            ]
            insts = [
                Instruction(Op.LOAD, dst=1 + i, src1=0, mem_index=i)
                for i in range(4)
            ] + [Instruction(Op.BRANCH, src1=0)]
            return run_block(pipe, insts, mem_patterns=pats)

        serial = build(1)
        parallel = build(8)
        assert serial > parallel + 2 * DEFAULT_MACHINE.memory_latency

    def test_store_does_not_block_consumers(self):
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        pat = MemPattern(
            PatternKind.REUSE, base=0x300000, span=64, stride=8, is_write=True
        )
        insts = [
            Instruction(Op.STORE, src1=0, src2=0, mem_index=0),
            Instruction(Op.IALU, dst=1, src1=0),
            Instruction(Op.BRANCH, src1=1),
        ]
        cycles = run_block(pipe, insts, mem_patterns=[pat])
        assert cycles < DEFAULT_MACHINE.memory_latency


class TestBranchTiming:
    def test_mispredict_costs_penalty(self):
        machine = DEFAULT_MACHINE
        insts = [Instruction(Op.BRANCH, src1=0)]

        pipe = make_pipeline(machine)
        warm_inst(pipe.hierarchy, 0x1000)
        # Train the predictor taken, then surprise it.
        block = BasicBlock(0, 0x1000, insts)
        for _ in range(8):
            execute(pipe, block, True)
        before = pipe.cycle
        execute(pipe, block, False)  # mispredict
        follow = independent_alus(3) + [Instruction(Op.BRANCH, src1=0)]
        block2 = BasicBlock(1, 0x1100, follow)
        warm_inst(pipe.hierarchy, 0x1100)
        execute(pipe, block2, True)
        assert pipe.cycle - before >= machine.mispredict_penalty

    def test_icache_miss_stalls_fetch(self):
        pipe_cold = make_pipeline()
        insts = independent_alus(3) + [Instruction(Op.BRANCH, src1=0)]
        cold = run_block(pipe_cold, insts)

        pipe_warm = make_pipeline()
        warm_inst(pipe_warm.hierarchy, 0x1000)
        warm = run_block(pipe_warm, insts)
        assert cold > warm


class TestWindowAccounting:
    def test_run_of_ten_matches_ten_single_events(self):
        """A ten-iteration run, replayed through the memoized chain, takes
        the cycles of its ten events issued one at a time, and 80 ops at
        4-wide issue need at least 19 cycles past the first."""
        insts = independent_alus(7) + [Instruction(Op.BRANCH, src1=0)]
        block = BasicBlock(0, 0x1000, insts)
        single = make_pipeline()
        for i in range(10):
            execute(single, block, True, i)
        batched = make_pipeline()
        warmer = FunctionalWarmer(batched.hierarchy, batched.predictor)
        warmer.execute_batch([BlockRun(block, 10, 0, False)], batched.replay)
        assert batched.cycle == single.cycle >= 19
        assert batched.timing_snapshot() == single.timing_snapshot()

    def test_cycles_monotonic_across_events(self):
        pipe = make_pipeline()
        insts = independent_alus(3) + [Instruction(Op.BRANCH, src1=0)]
        block = BasicBlock(0, 0x1000, insts)
        last = 0
        for i in range(20):
            execute(pipe, block, True, i)
            assert pipe.cycle >= last
            last = pipe.cycle


class TestCrossBlockOccupancy:
    def test_mshr_file_saturation_stalls_until_drain(self):
        """A full MSHR file blocks further misses until an entry drains,
        and the lazily-drained heap never holds more live entries than
        the file has registers."""
        machine = MachineConfig(n_mshrs=2)
        pipe = make_pipeline(machine)
        warm_inst(pipe.hierarchy, 0x1000)
        warm_inst(pipe.hierarchy, 0x1040)
        pats = [
            MemPattern(PatternKind.REUSE, base=(1 + i) << 24, span=64)
            for i in range(8)
        ]
        insts = [
            Instruction(Op.LOAD, dst=1 + i, src1=0, mem_index=i)
            for i in range(8)
        ] + [Instruction(Op.BRANCH, src1=0)]
        cycles = run_block(pipe, insts, mem_patterns=pats)
        # 8 independent misses through 2 registers: issue must wait for
        # at least three full drains beyond the overlapped pair.
        assert cycles >= 3 * machine.memory_latency
        assert len(pipe._mshrs) <= machine.n_mshrs

    def test_divide_occupancy_spans_block_boundaries(self):
        """An IDIV's unpipelined occupancy carries into the next block:
        the unit's next-free cycle is scoreboard state, not block state."""
        pipe = make_pipeline()
        warm_inst(pipe.hierarchy, 0x1000)
        insts = [
            Instruction(Op.IDIV, dst=1, src1=0, src2=0),
            Instruction(Op.BRANCH, src1=0),
        ]
        first = run_block(pipe, insts, bid=0)
        # The branch does not wait on the divide, so the first block ends
        # long before the unit frees up...
        assert first < 10
        # ...and each following block's divide stalls on the busy unit.
        second = run_block(pipe, insts, bid=1)
        third = run_block(pipe, insts, bid=2)
        assert second >= 10
        assert third >= 10
