"""Opcode classes, latencies and the static instruction encoding.

The ISA is a load/store RISC with 32 integer and 32 floating-point
registers.  Register numbers are unified into a single namespace
``0 .. N_REGS-1`` (integer registers first) so the pipeline can keep all
ready-times in one flat array.  Register 0 is hard-wired to zero and never
creates a dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from ..errors import ProgramError

__all__ = [
    "Op",
    "OP_LATENCY",
    "FU_CLASS",
    "FU_LIMITS",
    "N_INT_REGS",
    "N_FP_REGS",
    "N_REGS",
    "ZERO_REG",
    "Instruction",
    "is_mem_op",
]

N_INT_REGS = 32
N_FP_REGS = 32
N_REGS = N_INT_REGS + N_FP_REGS

#: Integer register 0: reads are always ready, writes are discarded.
ZERO_REG = 0


class Op(IntEnum):
    """Opcode classes recognised by the timing model."""

    IALU = 0
    IMUL = 1
    IDIV = 2
    FALU = 3
    FMUL = 4
    FDIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    NOP = 9


#: Execution latency in cycles for each opcode class.  ``LOAD`` latency is
#: the address-generation cycle only; the cache hierarchy adds access time.
OP_LATENCY = {
    Op.IALU: 1,
    Op.IMUL: 3,
    Op.IDIV: 12,
    Op.FALU: 2,
    Op.FMUL: 4,
    Op.FDIV: 16,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.BRANCH: 1,
    Op.NOP: 1,
}


class FuClass(IntEnum):
    """Functional-unit pools contended for at issue."""

    SIMPLE = 0   # integer ALU / NOP / branch resolution
    COMPLEX = 1  # integer multiply / divide
    FP = 2       # floating-point pipeline
    MEM = 3      # load/store ports


#: Map from opcode class to functional-unit pool.
FU_CLASS = {
    Op.IALU: FuClass.SIMPLE,
    Op.IMUL: FuClass.COMPLEX,
    Op.IDIV: FuClass.COMPLEX,
    Op.FALU: FuClass.FP,
    Op.FMUL: FuClass.FP,
    Op.FDIV: FuClass.FP,
    Op.LOAD: FuClass.MEM,
    Op.STORE: FuClass.MEM,
    Op.BRANCH: FuClass.SIMPLE,
    Op.NOP: FuClass.SIMPLE,
}

#: Issue slots per cycle available in each functional-unit pool on the
#: default 4-wide machine.
FU_LIMITS = {
    FuClass.SIMPLE: 4,
    FuClass.COMPLEX: 1,
    FuClass.FP: 2,
    FuClass.MEM: 2,
}


def is_mem_op(op: Op) -> bool:
    """Return True if *op* accesses the data cache."""
    return op is Op.LOAD or op is Op.STORE


@dataclass(frozen=True)
class Instruction:
    """One static instruction inside a basic block.

    Attributes:
        op: opcode class.
        dst: destination register, or ``None`` when the instruction writes
            no register (stores, branches, NOPs).
        src1: first source register, or ``None``.
        src2: second source register, or ``None``.
        mem_index: index of this instruction's memory-access generator
            within its block, or ``None`` for non-memory instructions.
    """

    op: Op
    dst: Optional[int] = None
    src1: Optional[int] = None
    src2: Optional[int] = None
    mem_index: Optional[int] = None

    def __post_init__(self) -> None:
        for reg in (self.dst, self.src1, self.src2):
            if reg is not None and not 0 <= reg < N_REGS:
                raise ProgramError(f"register {reg} out of range 0..{N_REGS - 1}")
        if is_mem_op(self.op):
            if self.mem_index is None:
                raise ProgramError(f"{self.op.name} requires a mem_index")
        elif self.mem_index is not None:
            raise ProgramError(f"{self.op.name} must not carry a mem_index")
        if self.op is Op.STORE and self.dst is not None:
            raise ProgramError("STORE writes no register")

    @property
    def latency(self) -> int:
        """Base execution latency in cycles (excluding cache time)."""
        return OP_LATENCY[self.op]
