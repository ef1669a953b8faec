"""Instruction-set model for the simulated RISC machine.

The simulated processor (paper Section 5) executes a simple in-order RISC
ISA.  This subpackage defines the opcode classes, their latencies and
functional-unit requirements, and the static-instruction encoding used by
:mod:`repro.program` and :mod:`repro.cpu`.
"""

from .instructions import (
    Op,
    OP_LATENCY,
    FU_CLASS,
    FU_LIMITS,
    N_INT_REGS,
    N_FP_REGS,
    N_REGS,
    ZERO_REG,
    Instruction,
    is_mem_op,
)

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
