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
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .stream import BlockRun

__all__ = [
    "PatternKind",
    "MemPattern",
    "AddressWindows",
    "LOOKAHEAD",
    "SLICE_ACCESSES",
    "batch_addresses",
    "batch_slices",
    "pattern_row",
]

#: Knuth multiplicative-hash constant used by RANDOM/CHASE address hashing.
_HASH_MULT = 2654435761
#: Multiplier of the avalanche finalizer's middle step.
_AVALANCHE_MULT = 0x45D9F3B
_MASK32 = 0xFFFFFFFF
#: Most data accesses :func:`batch_slices` puts in one slice: bounds the
#: arrays a batch's address stream is generated and replayed in.
SLICE_ACCESSES = 1 << 13
#: Fewest executions of a pattern one :class:`AddressWindows` refill makes.
LOOKAHEAD = 512


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

    @property
    def serialises(self) -> bool:
        """True when the owning load must chain on its previous result."""
        return self.kind is PatternKind.CHASE


def pattern_row(pattern: MemPattern) -> Tuple[int, int, int, int, int, int]:
    """One row of the address table :func:`batch_addresses` gathers from:
    ``(hashed, base, stride, span, seed, is_write)``."""
    return (
        int(pattern.kind is PatternKind.RANDOM or pattern.kind is PatternKind.CHASE),
        pattern.base,
        pattern.stride,
        pattern.span,
        pattern.seed,
        int(pattern.is_write),
    )


def batch_slices(runs: Sequence["BlockRun"]) -> Iterator[List["BlockRun"]]:
    """Cut a batch into consecutive slices of at most
    :data:`SLICE_ACCESSES` data accesses each.

    Slices end at run boundaries.  A run with more accesses than that on
    its own is cut into iteration chunks, each yielded alone.  The chunks
    are runs in their own right: expanded one after another they give
    the run's events, because only the last chunk ends the entry and each
    carries its own slice of ``takens``.
    """
    part: List["BlockRun"] = []
    size = 0
    for run in runs:
        width = len(run.block.mem_patterns)
        accesses = run.n * width
        if size + accesses > SLICE_ACCESSES and part:
            yield part
            part = []
            size = 0
        if accesses > SLICE_ACCESSES:
            step = SLICE_ACCESSES // width
            takens = run.takens
            for i in range(0, run.n, step):
                end = min(i + step, run.n)
                yield [
                    run._replace(
                        n=end - i,
                        k_start=run.k_start + i,
                        ends_entry=run.ends_entry and end == run.n,
                        takens=None if takens is None else takens[i:end],
                    )
                ]
            continue
        part.append(run)
        size += accesses
    if part:
        yield part


def batch_addresses(runs: Sequence["BlockRun"]) -> Tuple[np.ndarray, np.ndarray]:
    """Every data address of a batch of runs, and its write flag.

    Returns ``(addrs, writes)`` (int64, bool) in program order: run by
    run, iteration-major, then pattern-minor in ``block.mem_patterns``
    order — the order :meth:`MemPattern.address` would be called by an
    event loop over the expanded runs, and bit-identical to it.

    Python touches each run once, and each distinct block's
    ``pattern_rows`` once; everything per access is numpy.  Strided
    kinds are plain int64 arithmetic; hashed kinds replay the 32-bit
    avalanche in uint64 (the 32-bit masks make modulo-2**64 wraparound
    indistinguishable from Python's arbitrary-precision product).
    """
    first_row: Dict[int, int] = {}
    table: List[Tuple[int, int, int, int, int, int]] = []
    k_starts: List[int] = []
    ns: List[int] = []
    widths: List[int] = []
    firsts: List[int] = []
    for run in runs:
        block = run.block
        rows = block.pattern_rows
        if not rows:
            continue
        first = first_row.get(id(block))
        if first is None:
            first = first_row[id(block)] = len(table)
            table.extend(rows)
        k_starts.append(run.k_start)
        ns.append(run.n)
        widths.append(len(rows))
        firsts.append(first)
    if not ns:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

    width = np.array(widths, dtype=np.int64)
    counts = np.array(ns, dtype=np.int64) * width
    # Per access: its run, its offset within the run, then its
    # iteration (k) and its pattern's table row.
    run_of = np.repeat(np.arange(len(ns)), counts)
    offset = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    width = width[run_of]
    iteration = offset // width
    k = np.array(k_starts, dtype=np.int64)[run_of] + iteration
    row = np.array(firsts, dtype=np.int64)[run_of] + offset - iteration * width

    hashed, base, stride, span, seed, write = np.array(table, dtype=np.int64).T
    hashed = hashed.astype(bool)[row]
    base = base[row]
    span = span[row]
    writes = write.astype(bool)[row]
    if not hashed.any():
        return base + (k * stride[row]) % span, writes
    if hashed.all():
        return _hashed(k, base, span, seed[row]), writes
    addrs = base + (k * stride[row]) % span
    addrs[hashed] = _hashed(k[hashed], base[hashed], span[hashed], seed[row[hashed]])
    return addrs, writes


class AddressWindows:
    """The functional warmer's packed data streams: per memory pattern, a
    window of ``(address(k) ^ salt) << 1 | is_write`` for its executions
    ``k0 .. k0 + L - 1``, which serves a run one list slice.

    Addresses are pure functions of (pattern, *k*), so a run outside its
    window (a jump ahead, a rewind by ``engine.restore``) just refills
    it: one numpy evaluation of ``L = max(LOOKAHEAD, n)`` executions from
    the run's ``k_start``.  Memory: one window per pattern per engine,
    each of at most ``max(LOOKAHEAD, SLICE_ACCESSES)`` entries.
    """

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt
        # id(pattern) -> (pattern, k0, entries): holding it keeps the id.
        self._windows: Dict[int, Tuple[MemPattern, int, List[int]]] = {}

    def stream(self, runs: Sequence["BlockRun"]) -> List[int]:
        """The packed stream of *runs*, in :func:`batch_addresses` order."""
        take = self._take
        stream: List[int] = []
        for run in runs:
            patterns = run.block.mem_patterns
            if len(patterns) == 1:
                stream += take(patterns[0], run.k_start, run.n)
            elif patterns:
                # Interleave the per-pattern columns iteration-major.
                width = len(patterns)
                chunk = [0] * (run.n * width)
                for j, pat in enumerate(patterns):
                    chunk[j::width] = take(pat, run.k_start, run.n)
                stream += chunk
        return stream

    def _take(self, pat: MemPattern, k: int, n: int) -> List[int]:
        """Packed entries of executions ``k .. k + n - 1`` of *pat*."""
        window = self._windows.get(id(pat))
        if window is None or not window[1] <= k <= window[1] + len(window[2]) - n:
            ks = np.arange(k, k + max(LOOKAHEAD, n), dtype=np.int64)
            if pat.kind is PatternKind.STREAM or pat.kind is PatternKind.REUSE:
                addrs = pat.base + (ks * pat.stride) % pat.span
            else:
                addrs = _hashed(ks, *np.array([[pat.base], [pat.span], [pat.seed]]))
            entries = ((addrs ^ self.salt) << 1 | int(pat.is_write)).tolist()
            window = self._windows[id(pat)] = (pat, k, entries)
        lo = k - window[1]
        return window[2][lo : lo + n]


def _hashed(
    k: np.ndarray, base: np.ndarray, span: np.ndarray, seed: np.ndarray
) -> np.ndarray:
    """Vectorised RANDOM/CHASE branch of :meth:`MemPattern.address`."""
    h = (k + seed).astype(np.uint64) * np.uint64(_HASH_MULT) & np.uint64(_MASK32)
    h ^= h >> np.uint64(16)
    h = h * np.uint64(_AVALANCHE_MULT) & np.uint64(_MASK32)
    h ^= h >> np.uint64(16)
    return base + ((h % span.astype(np.uint64)) & ~np.uint64(0x7)).astype(np.int64)
