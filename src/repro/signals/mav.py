"""Memory-access-vector (MAV) tracking: the second phase signal.

BBVs project program behaviour onto control flow, so two phases that
execute the *same* blocks over *different* data are indistinguishable to
them (Caculo et al., PAPERS.md).  :class:`MavTracker` projects behaviour
onto the memory stream instead: every dynamic access is reduced to its
cache-line and page identity, and each granularity hashes into its own
small register file of access counts.  The compiled vector is the
concatenation ``[line buckets | page buckets]`` — the line half captures
fine-grained spatial locality, the page half the coarse footprint — and
is L2-normalised and angle-compared exactly like a BBV.

Closed-form batching mirrors the BBV credit telescoping.  A
:class:`~repro.program.MemPattern` is a pure function of its block's
execution count *k* (that is what makes checkpoints tiny), so the
address stream of a batch of :class:`~repro.program.BlockRun` records
is computable without expanding events:
:func:`~repro.program.mem_patterns.batch_addresses` evaluates the
strided and hashed generators over every ``k`` of the batch with numpy
integer arithmetic that reproduces ``MemPattern.address`` bit-for-bit
(products are masked to 32 bits, so uint64 wraparound is unobservable).
All register increments are integer-valued counts far below 2**53, so
float64 accumulation is exact and the register file is bit-identical to
counting one access at a time — the property ``tests/test_signals.py``
pins with hypothesis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..program.mem_patterns import batch_addresses, batch_slices
from .base import pack_registers, unpack_registers
from .vector import l2_norm

if TYPE_CHECKING:
    from ..program.stream import BlockRun

__all__ = ["MavTracker"]

#: Knuth multiplicative-hash constant (same family as the pattern hash).
_HASH_MULT = 2654435761
_MASK32 = 0xFFFFFFFF


class MavTracker:
    """Accumulates a reduced memory-access vector over a sampling period.

    Args:
        n_buckets: register-file width per granularity; the compiled
            vector has ``2 * n_buckets`` entries.
        line_bits: log2 of the cache-line size addresses are reduced to
            (64-byte lines by default, matching the machine model).
        page_bits: log2 of the page size for the coarse half.

    The tracker is engine-attachable exactly like
    :class:`~repro.signals.BbvTracker` and implements the same
    :class:`~repro.signals.SignalTracker` protocol; unlike the BBV it
    consumes the execution count *k* carried by each event, because the
    address stream — not the branch stream — is the signal.
    """

    def __init__(
        self, n_buckets: int = 32, line_bits: int = 6, page_bits: int = 12
    ) -> None:
        if n_buckets < 2:
            raise ConfigurationError("n_buckets must be at least 2")
        if not 0 <= line_bits <= page_bits:
            raise ConfigurationError(
                "need 0 <= line_bits <= page_bits for the two granularities"
            )
        self.n_buckets = n_buckets
        self.line_bits = line_bits
        self.page_bits = page_bits
        self._registers: np.ndarray = np.zeros(2 * n_buckets, dtype=np.float64)
        self.total_ops = 0
        #: Dynamic memory accesses observed since construction / reset.
        self.total_accesses = 0

    def _bucket_batch(self, units: np.ndarray) -> np.ndarray:
        """Bucket of each line/page number: the multiplicative hash
        ``(unit * 2654435761 & 0xFFFFFFFF) % n_buckets`` in uint64, which
        the 32-bit mask makes bit-identical to Python integers."""
        mixed = units.astype(np.uint64) * np.uint64(_HASH_MULT) & np.uint64(
            _MASK32
        )
        return (mixed % np.uint64(self.n_buckets)).astype(np.int64)

    def record_batch(self, runs: Sequence["BlockRun"]) -> None:
        """Observe a batch of run-length records in closed form.

        Every memory instruction of every expanded event generates its
        *k*-th address, counted once at line granularity and once at page
        granularity; branch outcomes are irrelevant to this signal.  The
        batch's address stream comes from one
        :func:`~repro.program.mem_patterns.batch_addresses` call (per
        :func:`~repro.program.mem_patterns.batch_slices` slice, which
        bounds memory on long batches), and per-bucket counts from one
        ``bincount`` per granularity.  Counts are integers, so the
        float64 register file ends bit-identical to counting one access
        at a time.
        """
        registers = self._registers
        n_buckets = self.n_buckets
        for run in runs:
            self.total_ops += run.n * run.block.n_ops
        for part in batch_slices(runs):
            addresses, _ = batch_addresses(part)
            if not len(addresses):
                continue
            registers[:n_buckets] += np.bincount(
                self._bucket_batch(addresses >> self.line_bits),
                minlength=n_buckets,
            )
            registers[n_buckets:] += np.bincount(
                self._bucket_batch(addresses >> self.page_bits),
                minlength=n_buckets,
            )
            self.total_accesses += len(addresses)

    def take_vector(self, normalize: bool = True) -> np.ndarray:
        """Compile the register file into a vector and reset it in place.

        Args:
            normalize: L2-normalise the result (the comparison form).
        """
        vec = self._registers.copy()
        self._registers.fill(0.0)
        if normalize:
            norm = l2_norm(vec)
            if norm > 0.0:
                vec /= norm
        return vec

    def reset(self) -> None:
        """Clear registers (in place) and both counters."""
        self._registers.fill(0.0)
        self.total_ops = 0
        self.total_accesses = 0

    def snapshot(self) -> Dict[str, object]:
        """Capture tracker state for checkpointing (compact buffer form)."""
        return {
            "registers": pack_registers(self._registers),
            "total_ops": self.total_ops,
            "total_accesses": self.total_accesses,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self._registers = unpack_registers(
            state["registers"], 2 * self.n_buckets
        )
        self.total_ops = state["total_ops"]  # type: ignore[assignment]
        self.total_accesses = state["total_accesses"]  # type: ignore[assignment]
