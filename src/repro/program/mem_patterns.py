"""Per-instruction memory-access generators.

Each static load/store owns a :class:`MemPattern` that maps the dynamic
execution count *k* of its basic block to a byte address.  Patterns are pure
functions of *k*, which makes the whole memory trace reproducible from the
block-execution counts alone — the property that lets checkpoints stay tiny
(an array of counters) and lets SimPoint's two passes see identical traces.

Four kinds cover the behaviours the workload suite needs:

* ``STREAM`` — sequential walk over a large footprint: compulsory misses at
  line granularity (memcpy/scan-like).
* ``REUSE``  — walk over a footprint that fits in L1: hits after warm-up
  (stack/temporaries).
* ``RANDOM`` — hashed index into a large footprint: thrashes L1/L2
  (hash tables, sparse matrices).
* ``CHASE``  — like RANDOM but the owning load is made dependent on its own
  previous value by the block builder, serialising the misses
  (linked-list/pointer chasing, the 181.mcf signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ProgramError

__all__ = ["PatternKind", "MemPattern", "pattern_addresses"]

#: Knuth multiplicative-hash constant used by RANDOM/CHASE address hashing.
_HASH_MULT = 2654435761
#: Multiplier of the avalanche finalizer's middle step.
_AVALANCHE_MULT = 0x45D9F3B
_MASK32 = 0xFFFFFFFF


class PatternKind(Enum):
    """The four supported address-generation behaviours."""

    STREAM = "stream"
    REUSE = "reuse"
    RANDOM = "random"
    CHASE = "chase"


@dataclass(frozen=True)
class MemPattern:
    """Address generator for one static memory instruction.

    Attributes:
        kind: one of :class:`PatternKind`.
        base: start of this pattern's address region (byte address).  The
            workload builders give each pattern a disjoint region so that
            footprints do not alias unless a workload wants them to.
        span: size of the region in bytes; addresses stay in
            ``[base, base + span)``.
        stride: byte step per execution (STREAM/REUSE only).
        seed: per-pattern hash salt (RANDOM/CHASE only).
        is_write: True when the owning instruction is a store.
    """

    kind: PatternKind
    base: int
    span: int
    stride: int = 64
    seed: int = 0
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.span <= 0:
            raise ProgramError("span must be positive")
        if self.kind in (PatternKind.STREAM, PatternKind.REUSE) and self.stride <= 0:
            raise ProgramError("stride must be positive for strided patterns")

    def address(self, k: int) -> int:
        """Return the byte address for the *k*-th execution (k >= 0)."""
        if self.kind is PatternKind.STREAM or self.kind is PatternKind.REUSE:
            return self.base + (k * self.stride) % self.span
        # RANDOM / CHASE: hash of k with an avalanche finalizer, 8-byte
        # aligned.  The xor-shift steps matter: a bare multiplicative hash
        # taken modulo a power-of-two span is a bijection of the low bits,
        # which would make the address stream collision-free (0% temporal
        # reuse) instead of statistically random.
        h = ((k + self.seed) * _HASH_MULT) & _MASK32
        h ^= h >> 16
        h = (h * _AVALANCHE_MULT) & _MASK32
        h ^= h >> 16
        return self.base + ((h % self.span) & ~0x7)

    def footprint_lines(self, line_bytes: int = 64) -> int:
        """Approximate number of distinct cache lines the pattern touches."""
        if self.kind is PatternKind.STREAM or self.kind is PatternKind.REUSE:
            step = max(self.stride, 1)
            touched = (self.span + step - 1) // step
            per_line = max(line_bytes // step, 1)
            return max(touched // per_line, 1)
        return max(self.span // line_bytes, 1)

    @property
    def serialises(self) -> bool:
        """True when the owning load must chain on its previous result."""
        return self.kind is PatternKind.CHASE


def pattern_addresses(pattern: MemPattern, ks: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`MemPattern.address` over *ks*.

    Evaluates the pattern's address generator for every execution count
    in *ks* (int64, non-negative) in one shot, bit-identical to the
    scalar method: strided kinds are plain int64 arithmetic, hashed
    kinds replay the 32-bit avalanche in uint64 (the 32-bit masks make
    modulo-2**64 wraparound indistinguishable from Python's
    arbitrary-precision product).  The MAV signal and the functional
    warmer both generate a run's address stream with it.
    """
    if pattern.kind is PatternKind.STREAM or pattern.kind is PatternKind.REUSE:
        return pattern.base + (ks * pattern.stride) % pattern.span
    h = (ks.astype(np.uint64) + np.uint64(pattern.seed)) * np.uint64(
        _HASH_MULT
    ) & np.uint64(_MASK32)
    h ^= h >> np.uint64(16)
    h = h * np.uint64(_AVALANCHE_MULT) & np.uint64(_MASK32)
    h ^= h >> np.uint64(16)
    offsets = (h % np.uint64(pattern.span)) & ~np.uint64(0x7)
    return (np.uint64(pattern.base) + offsets).astype(np.int64)
