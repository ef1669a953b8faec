"""The BBV register file and its address hash (paper Figure 4).

The hash "simply selects five bits from the address and concatenates them
into an index for a register file.  The five bits are chosen at random, but
remain constant throughout the simulation."  :class:`ReducedBbvHash`
implements exactly that; :class:`WideBbvHash` is a higher-dimensional
variant used by the BBV-width ablation.

:class:`BbvTracker` accumulates ops-since-last-taken-branch into the
indexed register.  For speed it pre-resolves each basic block's branch
address to its bucket once (the hash is constant), and accumulates the
untaken-branch op run-length exactly as the hardware would: ops retired
since the *last taken branch* are credited to the bucket of the taken
branch that ends the run.

:meth:`BbvTracker.record_batch` consumes the run-length records produced
by a stream's ``next_events``, folding each run's credits into closed form
and applying a whole batch with vectorised numpy scatter-adds.  All
credits are integer-valued and far below 2**53, so float64 accumulation
is exact and the register file is bit-identical to crediting one event
at a time.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Protocol, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..program.block import BasicBlock
from .base import pack_registers, unpack_registers
from .vector import l2_norm

if TYPE_CHECKING:
    from ..program.stream import BlockRun

__all__ = ["BbvHash", "ReducedBbvHash", "WideBbvHash", "BbvTracker"]


class BbvHash(Protocol):
    """Structural type of a branch-address bucket function."""

    n_buckets: int

    def __call__(self, address: int) -> int:
        """Map a branch address to its register-file index."""
        ...


class ReducedBbvHash:
    """Concatenate five randomly chosen branch-address bits (Fig. 4).

    Args:
        n_bits: number of selected bits (paper: 5, giving 32 buckets).
        seed: seed for the one-time random bit choice.
        lo, hi: inclusive range of candidate bit positions; the low two
            bits are excluded by default because instructions are 4-byte
            aligned and those bits carry no information.
    """

    def __init__(self, n_bits: int = 5, seed: int = 12345, lo: int = 2, hi: int = 23) -> None:
        if n_bits < 1 or hi - lo + 1 < n_bits:
            raise ConfigurationError("not enough candidate bits for the hash")
        rng = random.Random(seed)
        self.bit_positions = sorted(rng.sample(range(lo, hi + 1), n_bits))
        self.n_buckets = 1 << n_bits

    def __call__(self, address: int) -> int:
        """Map a branch address to its register-file index."""
        index = 0
        for shift, pos in enumerate(self.bit_positions):
            index |= ((address >> pos) & 1) << shift
        return index

    def batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised bit-gather: hash an array of branch addresses."""
        a = np.asarray(addresses, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        for shift, pos in enumerate(self.bit_positions):
            out |= ((a >> pos) & 1) << shift
        return out


class WideBbvHash:
    """A wider modulo hash used by the BBV-dimensionality ablation."""

    def __init__(self, n_buckets: int = 1024) -> None:
        if n_buckets < 2:
            raise ConfigurationError("n_buckets must be at least 2")
        self.n_buckets = n_buckets

    def __call__(self, address: int) -> int:
        """Map a branch address to a bucket by multiplicative hashing."""
        return ((address >> 2) * 2654435761 & 0xFFFFFFFF) % self.n_buckets

    def batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised multiplicative hash of an array of addresses.

        uint64 arithmetic wraps modulo 2**64, which the 32-bit mask makes
        indistinguishable from Python's arbitrary-precision product.
        """
        a = np.asarray(addresses, dtype=np.uint64)
        mixed = (a >> np.uint64(2)) * np.uint64(2654435761) & np.uint64(0xFFFFFFFF)
        return (mixed % np.uint64(self.n_buckets)).astype(np.int64)


class BbvTracker:
    """Accumulates the BBV register file over a sampling period.

    Args:
        hash_fn: bucket function (defaults to the paper's 5-bit hash).

    The tracker is attached to a :class:`~repro.cpu.SimulationEngine`; the
    engine calls :meth:`record_batch` once per stream batch.  At each BBV
    sampling-period boundary the driver calls :meth:`take_vector` to
    compile and reset the register file.
    """

    def __init__(self, hash_fn: Optional[BbvHash] = None) -> None:
        self.hash_fn: BbvHash = hash_fn if hash_fn is not None else ReducedBbvHash()
        self.n_buckets = self.hash_fn.n_buckets
        self._registers: np.ndarray = np.zeros(self.n_buckets, dtype=np.float64)
        #: Ops retired since the last taken branch (the Fig. 4 side counter).
        self._run_ops = 0
        #: Per-block bucket cache: the hash of a block's branch address.
        self._bucket_of_block: Dict[int, int] = {}
        self.total_ops = 0

    def bucket_for(self, block: BasicBlock) -> int:
        """Bucket index of *block*'s terminating branch (cached)."""
        bucket = self._bucket_of_block.get(block.bid)
        if bucket is None:
            bucket = self.hash_fn(block.branch_address)
            self._bucket_of_block[block.bid] = bucket
        return bucket

    def _resolve_buckets(self, blocks: Sequence[BasicBlock]) -> None:
        """Hash any not-yet-cached blocks, vectorised when possible."""
        cache = self._bucket_of_block
        fresh: Dict[int, int] = {}
        for block in blocks:
            if block.bid not in cache and block.bid not in fresh:
                fresh[block.bid] = block.branch_address
        if not fresh:
            return
        batch = getattr(self.hash_fn, "batch", None)
        bids = list(fresh.keys())
        if batch is not None:
            addresses = np.fromiter(fresh.values(), dtype=np.int64, count=len(bids))
            buckets = batch(addresses)
            for bid, bucket in zip(bids, buckets):
                cache[bid] = int(bucket)
        else:
            for bid in bids:
                cache[bid] = self.hash_fn(fresh[bid])

    def record_batch(self, runs: Sequence["BlockRun"]) -> None:
        """Observe a batch of run-length records in closed form.

        Fig. 4 semantics: ops accumulate in a run counter, and each taken
        terminator credits the run (including its own block) to the
        branch's bucket.  Within one run every event shares a bucket, so
        the per-event credits telescope: the ops from the run's start
        through its last taken branch (plus the run counter carried in)
        land in that bucket, and anything after the last taken branch
        carries out.  Across the batch the carried run counter is
        reconstructed from prefix sums, and all credits are applied with
        one scatter-add — bit-identical to crediting per expanded event.
        """
        m = len(runs)
        if m == 0:
            return
        self._resolve_buckets([run.block for run in runs])
        cache = self._bucket_of_block
        n = np.empty(m, dtype=np.int64)
        n_ops = np.empty(m, dtype=np.int64)
        last_taken = np.empty(m, dtype=np.int64)
        buckets = np.empty(m, dtype=np.int64)
        for i, run in enumerate(runs):
            n[i] = run.n
            n_ops[i] = run.block.n_ops
            last_taken[i] = run.last_taken
            buckets[i] = cache[run.block.bid]

        tot = n * n_ops
        self.total_ops += int(tot.sum())
        taken_idx = np.flatnonzero(last_taken >= 0)
        if taken_idx.size == 0:
            self._run_ops += int(tot.sum())
            return
        # prefix[i] = ops of runs 0..i-1; residual = ops after the last
        # taken branch within each taken run.
        prefix = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(tot)))
        residual = n_ops[taken_idx] * (n[taken_idx] - 1 - last_taken[taken_idx])
        entering = np.empty(taken_idx.size, dtype=np.int64)
        entering[0] = self._run_ops + prefix[taken_idx[0]]
        if taken_idx.size > 1:
            entering[1:] = (
                residual[:-1] + prefix[taken_idx[1:]] - prefix[taken_idx[:-1] + 1]
            )
        credit = entering + n_ops[taken_idx] * (last_taken[taken_idx] + 1)
        np.add.at(self._registers, buckets[taken_idx], credit)
        self._run_ops = int(residual[-1] + prefix[m] - prefix[taken_idx[-1] + 1])

    def take_vector(self, normalize: bool = True) -> np.ndarray:
        """Compile the register file into a vector and reset it in place.

        Args:
            normalize: L2-normalise the result (the paper's comparison form).
        """
        vec = self._registers.copy()
        self._registers.fill(0.0)
        self._run_ops = 0
        if normalize:
            norm = l2_norm(vec)
            if norm > 0.0:
                vec /= norm
        return vec

    def peek_vector(self) -> np.ndarray:
        """Current raw (unnormalised) register contents, without reset."""
        return self._registers.copy()

    def reset(self) -> None:
        """Clear registers (in place), run counter and op total."""
        self._registers.fill(0.0)
        self._run_ops = 0
        self.total_ops = 0

    def snapshot(self) -> Dict[str, object]:
        """Capture tracker state for checkpointing.

        Registers travel as a compact float64 buffer
        (:func:`~repro.signals.base.pack_registers`), not a Python list,
        so wide register files stay cheap in fleet checkpoints.
        """
        return {
            "registers": pack_registers(self._registers),
            "run_ops": self._run_ops,
            "total_ops": self.total_ops,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot` (either the compact
        buffer form or the historical list form)."""
        self._registers = unpack_registers(state["registers"], self.n_buckets)
        self._run_ops = state["run_ops"]  # type: ignore[assignment]
        self.total_ops = state["total_ops"]  # type: ignore[assignment]
