"""Tests for the ISA model: opcode classes, latencies, instruction encoding."""

import pytest

from repro.errors import ProgramError
from repro.isa import (
    FU_CLASS,
    FU_LIMITS,
    Instruction,
    N_REGS,
    OP_LATENCY,
    Op,
    is_mem_op,
)
from repro.isa.instructions import FuClass


class TestOpcodes:
    def test_every_op_has_latency(self):
        for op in Op:
            assert OP_LATENCY[op] >= 1

    def test_every_op_has_fu_class(self):
        for op in Op:
            assert FU_CLASS[op] in FuClass

    def test_divides_are_slowest(self):
        assert OP_LATENCY[Op.IDIV] > OP_LATENCY[Op.IMUL] > OP_LATENCY[Op.IALU]
        assert OP_LATENCY[Op.FDIV] > OP_LATENCY[Op.FMUL] > OP_LATENCY[Op.FALU]

    def test_mem_op_predicate(self):
        assert is_mem_op(Op.LOAD) and is_mem_op(Op.STORE)
        assert not is_mem_op(Op.IALU)
        assert not is_mem_op(Op.BRANCH)

    def test_fu_limits_fit_issue_width(self):
        assert all(1 <= limit <= 4 for limit in FU_LIMITS.values())
        assert FU_LIMITS[FuClass.COMPLEX] == 1  # unpipelined divide unit


class TestInstruction:
    def test_alu_instruction(self):
        inst = Instruction(Op.IALU, dst=3, src1=1, src2=2)
        assert inst.latency == OP_LATENCY[Op.IALU]

    def test_load_requires_mem_index(self):
        with pytest.raises(ProgramError):
            Instruction(Op.LOAD, dst=3, src1=1)

    def test_non_mem_rejects_mem_index(self):
        with pytest.raises(ProgramError):
            Instruction(Op.IALU, dst=3, src1=1, mem_index=0)

    def test_store_writes_no_register(self):
        with pytest.raises(ProgramError):
            Instruction(Op.STORE, dst=3, src1=1, src2=2, mem_index=0)

    def test_register_range_checked(self):
        with pytest.raises(ProgramError):
            Instruction(Op.IALU, dst=N_REGS, src1=0)
        with pytest.raises(ProgramError):
            Instruction(Op.IALU, dst=1, src1=-3)

    def test_valid_fp_registers(self):
        inst = Instruction(Op.FMUL, dst=N_REGS - 1, src1=32, src2=40)
        assert inst.dst == N_REGS - 1

    def test_frozen(self):
        inst = Instruction(Op.IALU, dst=1, src1=2)
        with pytest.raises(Exception):
            inst.dst = 5
