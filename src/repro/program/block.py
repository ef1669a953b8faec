"""Basic blocks and the builder that synthesises them.

A :class:`BasicBlock` is a straight-line instruction sequence ending in a
branch.  Besides the list of :class:`~repro.isa.Instruction` objects it
carries *compiled* parallel lists (plain Python ints) that the detailed
pipeline's hot loop reads directly — attribute lookups on dataclasses are
too slow at millions of instructions per run.

:class:`BlockBuilder` generates blocks from a compact recipe (instruction
mix, dependence density, memory patterns) with a seeded RNG, so workloads
are fully reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from typing import Tuple

from ..errors import ProgramError
from ..isa import FU_CLASS, Instruction, N_FP_REGS, N_INT_REGS, Op
from .mem_patterns import MemPattern, PatternKind, pattern_row

__all__ = ["BasicBlock", "BlockBuilder"]

#: Bytes per encoded instruction (fixed-width RISC).
INST_BYTES = 4

#: Default cache-line size used to precompute instruction-fetch lines.
_LINE_BYTES = 64


class BasicBlock:
    """A straight-line run of instructions terminated by a branch.

    Attributes:
        bid: dense block id within its program.
        address: byte address of the first instruction.
        instructions: the static instruction sequence (last one is the
            terminating ``BRANCH``).
        mem_patterns: address generators, indexed by
            ``Instruction.mem_index``; the memory instructions use them
            in order, once each.
        random_taken_prob: when not ``None``, the terminator's outcome is
            drawn with this probability instead of being loop-controlled —
            used to model data-dependent (hard-to-predict) branches.
    """

    def __init__(
        self,
        bid: int,
        address: int,
        instructions: Sequence[Instruction],
        mem_patterns: Sequence[MemPattern] = (),
        random_taken_prob: Optional[float] = None,
    ) -> None:
        if not instructions:
            raise ProgramError("a basic block needs at least one instruction")
        if instructions[-1].op is not Op.BRANCH:
            raise ProgramError("a basic block must end in a BRANCH")
        if any(i.op is Op.BRANCH for i in instructions[:-1]):
            raise ProgramError("only the terminator may be a BRANCH")
        # The batched paths generate a block's addresses in pattern order
        # and the scoreboard consumes latencies in instruction order, so
        # the two orders must be one.
        uses = [i.mem_index for i in instructions if i.mem_index is not None]
        if uses != list(range(len(mem_patterns))):
            raise ProgramError(
                f"memory instructions use patterns {uses}; they must use "
                f"0..{len(mem_patterns) - 1} once each, in program order"
            )
        if random_taken_prob is not None and not 0.0 <= random_taken_prob <= 1.0:
            raise ProgramError("random_taken_prob must be in [0, 1]")

        self.bid = bid
        self.address = address
        self.instructions = list(instructions)
        self.mem_patterns = list(mem_patterns)
        #: One :func:`~repro.program.mem_patterns.pattern_row` per pattern:
        #: the block's slice of the table batched address generation
        #: gathers from.
        self.pattern_rows = [pattern_row(pat) for pat in self.mem_patterns]
        self.random_taken_prob = random_taken_prob
        self.n_ops = len(self.instructions)
        self.branch_address = address + (self.n_ops - 1) * INST_BYTES

        # Compiled parallel arrays for the pipeline hot loop.  -1 encodes
        # "no register".
        self.ops: List[int] = [int(i.op) for i in self.instructions]
        self.dsts: List[int] = [
            i.dst if i.dst is not None else -1 for i in self.instructions
        ]
        self.src1s: List[int] = [
            i.src1 if i.src1 is not None else -1 for i in self.instructions
        ]
        self.src2s: List[int] = [
            i.src2 if i.src2 is not None else -1 for i in self.instructions
        ]
        self.lats: List[int] = [i.latency for i in self.instructions]
        self.mem_idx: List[int] = [
            i.mem_index if i.mem_index is not None else -1 for i in self.instructions
        ]
        #: Indices (within the block) of memory instructions, in order.
        self.mem_positions: List[int] = [
            pos for pos, i in enumerate(self.instructions) if i.mem_index is not None
        ]
        #: Distinct I-cache line addresses this block's fetch touches.
        first_line = address // _LINE_BYTES
        last_line = (address + (self.n_ops - 1) * INST_BYTES) // _LINE_BYTES
        self.inst_lines: List[int] = [
            line * _LINE_BYTES for line in range(first_line, last_line + 1)
        ]

        #: Fully compiled per-instruction rows for the batched pipeline:
        #: one tuple ``(op, fu, dst, src1, src2, lat, mem_i)`` per
        #: instruction, so the hot loop pays a single unpack instead of six
        #: parallel-list index operations per op.
        self.rows: List[Tuple[int, int, int, int, int, int, int]] = [
            (
                self.ops[i],
                int(FU_CLASS[Op(self.ops[i])]),
                self.dsts[i],
                self.src1s[i],
                self.src2s[i],
                self.lats[i],
                self.mem_idx[i],
            )
            for i in range(self.n_ops)
        ]
        #: Registers whose *incoming* ready-time can influence this block's
        #: timing: sources read before any in-block write reaches them.
        #: This is the register slice of the pipeline's memoization context.
        live_in: List[int] = []
        written: List[int] = []
        for _op, _fu, dst, src1, src2, _lat, _mi in self.rows:
            for s in (src1, src2):
                if s > 0 and s not in written and s not in live_in:
                    live_in.append(s)
            if dst > 0 and dst not in written:
                written.append(dst)
        self.live_in_regs: Tuple[int, ...] = tuple(sorted(live_in))
        #: Registers this block writes (their outgoing ready-times are the
        #: register slice of the memoized timing transition's output).
        self.written_regs: Tuple[int, ...] = tuple(sorted(written))
        #: Functional-unit classes occupied unpipelined by divide ops; the
        #: only classes whose busy-times the scoreboard ever reads.
        self.div_fus: Tuple[int, ...] = tuple(
            sorted(
                {
                    row[1]
                    for row in self.rows
                    if row[0] in (int(Op.IDIV), int(Op.FDIV))
                }
            )
        )

    def __repr__(self) -> str:
        return (
            f"BasicBlock(bid={self.bid}, addr={self.address:#x}, "
            f"ops={self.n_ops}, mem={len(self.mem_patterns)})"
        )


class BlockBuilder:
    """Synthesises basic blocks from compact, seeded recipes.

    Args:
        seed: RNG seed; two builders with the same seed produce identical
            blocks for identical call sequences.
        base_address: byte address of the first generated block; subsequent
            blocks are laid out contiguously (with padding) so distinct
            blocks have distinct branch addresses.
    """

    #: Weight presets for ``mix`` recipes.
    MIXES = {
        "int": {Op.IALU: 8, Op.IMUL: 1},
        "int_light": {Op.IALU: 12},
        "fp": {Op.FALU: 5, Op.FMUL: 3, Op.IALU: 2},
        "fp_heavy": {Op.FMUL: 4, Op.FDIV: 1, Op.FALU: 3, Op.IALU: 1},
        "div": {Op.IDIV: 1, Op.IALU: 3},
        "mixed": {Op.IALU: 6, Op.FALU: 2, Op.IMUL: 1},
    }

    def __init__(self, seed: int = 0, base_address: int = 0x1000) -> None:
        self._rng = random.Random(seed)
        self._next_address = base_address
        self._next_bid = 0
        #: Next free memory region index (for auto-assigned pattern bases).
        self._next_region = 1

    def region_base(self) -> int:
        """Reserve and return a fresh 64 MB-aligned data region base."""
        base = self._next_region << 26
        self._next_region += 1
        return base

    def pattern(
        self,
        kind: PatternKind,
        span: int,
        stride: int = 64,
        is_write: bool = False,
    ) -> MemPattern:
        """Create a :class:`MemPattern` in a freshly reserved region."""
        return MemPattern(
            kind=kind,
            base=self.region_base(),
            span=span,
            stride=stride,
            seed=self._rng.randrange(1 << 16),
            is_write=is_write,
        )

    def twin(
        self, block: BasicBlock, mem_patterns: Sequence[MemPattern]
    ) -> BasicBlock:
        """A control-flow twin of *block* with different memory patterns.

        The twin reuses *block*'s address and instruction sequence
        verbatim, so its branch stream — and therefore its BBV
        contribution — is indistinguishable from the original's; only
        the generated address stream differs.  This is the building
        block of the adversarial workloads whose phases differ purely in
        memory behaviour (visible to a MAV, invisible to a BBV).

        The new patterns must match the original slot-for-slot in
        direction (``is_write``) because the load/store opcodes are
        reused as-is.
        """
        if len(mem_patterns) != len(block.mem_patterns):
            raise ProgramError(
                "a twin needs exactly one pattern per memory instruction"
            )
        for old, new in zip(block.mem_patterns, mem_patterns):
            if old.is_write != new.is_write:
                raise ProgramError(
                    "twin patterns must keep each slot's load/store direction"
                )
        twin = BasicBlock(
            bid=self._next_bid,
            address=block.address,
            instructions=block.instructions,
            mem_patterns=mem_patterns,
            random_taken_prob=block.random_taken_prob,
        )
        self._next_bid += 1
        return twin

    def build(
        self,
        ops: int,
        mix: str = "int",
        dep_density: float = 0.35,
        mem_patterns: Sequence[MemPattern] = (),
        random_taken_prob: Optional[float] = None,
    ) -> BasicBlock:
        """Generate one block.

        Args:
            ops: total instruction count including the terminator
                (must be >= 2 + number of memory patterns).
            mix: key into :attr:`MIXES` selecting the non-memory
                instruction mix.
            dep_density: probability that an instruction reads the result
                of one of the few most recent producers; higher values make
                longer dependence chains and lower ILP.
            mem_patterns: one load/store is emitted per pattern, evenly
                spread through the block; ``CHASE`` patterns produce a load
                that depends on its own previous value (serialised misses).
            random_taken_prob: forwarded to :class:`BasicBlock`.
        """
        if mix not in self.MIXES:
            raise ProgramError(f"unknown mix {mix!r}; choose from {sorted(self.MIXES)}")
        if not 0.0 <= dep_density <= 1.0:
            raise ProgramError("dep_density must be in [0, 1]")
        n_mem = len(mem_patterns)
        if ops < n_mem + 2:
            raise ProgramError("ops too small for the requested memory patterns")

        rng = self._rng
        weights = self.MIXES[mix]
        op_choices = list(weights.keys())
        op_weights = list(weights.values())

        # Positions for the memory instructions, spread through the body.
        body = ops - 1
        mem_positions = set()
        if n_mem:
            step = body / n_mem
            for j in range(n_mem):
                pos = min(int(j * step) + rng.randrange(max(int(step), 1)), body - 1)
                while pos in mem_positions:
                    pos = (pos + 1) % body
                mem_positions.add(pos)
        mem_order = sorted(mem_positions)
        mem_for_pos = {pos: j for j, pos in enumerate(mem_order)}

        # Register allocation: a rotating window of destination registers,
        # separate for int and fp, so dependences are local and realistic.
        recent: List[int] = []
        instructions: List[Instruction] = []
        #: Dedicated chain registers for CHASE loads (self-dependence).
        chase_regs = {}
        #: Loads whose results must be consumed soon (loads load data to
        #: use: without a guaranteed consumer, miss latency would be
        #: invisible to the in-order pipeline and block IPC would depend on
        #: accidental register wiring).
        pending_loads: List[int] = []
        next_int, next_fp = 1, N_INT_REGS  # r0 is the zero register

        def fresh_reg(is_fp: bool) -> int:
            nonlocal next_int, next_fp
            if is_fp:
                reg = next_fp
                next_fp = N_INT_REGS + 1 + (next_fp - N_INT_REGS) % (N_FP_REGS - 1)
            else:
                reg = next_int
                next_int = 1 + next_int % (N_INT_REGS - 2)
            return reg

        def a_source() -> int:
            if recent and rng.random() < dep_density:
                return rng.choice(recent[-4:])
            return rng.randrange(1, N_INT_REGS)

        for pos in range(body):
            if pos in mem_for_pos:
                pat = mem_patterns[mem_for_pos[pos]]
                midx = mem_for_pos[pos]
                if pat.is_write:
                    inst = Instruction(
                        Op.STORE, dst=None, src1=a_source(), src2=a_source(),
                        mem_index=midx,
                    )
                elif pat.serialises:
                    reg = chase_regs.setdefault(midx, fresh_reg(False))
                    inst = Instruction(Op.LOAD, dst=reg, src1=reg, mem_index=midx)
                    recent.append(reg)
                else:
                    dst = fresh_reg(False)
                    inst = Instruction(Op.LOAD, dst=dst, src1=a_source(), mem_index=midx)
                    recent.append(dst)
                    pending_loads.append(dst)
            else:
                op = rng.choices(op_choices, weights=op_weights)[0]
                is_fp = op in (Op.FALU, Op.FMUL, Op.FDIV)
                dst = fresh_reg(is_fp)
                src1 = pending_loads.pop(0) if pending_loads else a_source()
                inst = Instruction(op, dst=dst, src1=src1, src2=a_source())
                recent.append(dst)
            instructions.append(inst)
            if len(recent) > 8:
                recent = recent[-8:]

        branch_src = pending_loads.pop(0) if pending_loads else a_source()
        instructions.append(Instruction(Op.BRANCH, src1=branch_src))

        address = self._next_address
        # Scatter blocks through the text segment the way real functions
        # are: gaps of up to a few KB make the mid-range address bits that
        # the 5-bit BBV hash samples actually informative.
        self._next_address += (
            ops * INST_BYTES + rng.randrange(8, 1024) * INST_BYTES
        )
        block = BasicBlock(
            bid=self._next_bid,
            address=address,
            instructions=instructions,
            mem_patterns=mem_patterns,
            random_taken_prob=random_taken_prob,
        )
        self._next_bid += 1
        return block
