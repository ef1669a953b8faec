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
by a stream's ``next_events`` in one pass over the runs: it carries the
run counter from run to run and credits each run, in closed form, to the
bucket of its last taken branch.  The register file is a list of Python
floats (IEEE doubles, like the float64 vectors it compiles to); all
credits are integer-valued and far below 2**53, so accumulation is exact
and the registers are bit-identical to crediting one event at a time.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence

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


class WideBbvHash:
    """A wider modulo hash used by the BBV-dimensionality ablation."""

    def __init__(self, n_buckets: int = 1024) -> None:
        if n_buckets < 2:
            raise ConfigurationError("n_buckets must be at least 2")
        self.n_buckets = n_buckets

    def __call__(self, address: int) -> int:
        """Map a branch address to a bucket by multiplicative hashing."""
        return ((address >> 2) * 2654435761 & 0xFFFFFFFF) % self.n_buckets


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
        #: The register file, as Python floats: one closed-form credit per
        #: taken run costs less on a list than on a numpy array.
        self._registers: List[float] = [0.0] * self.n_buckets
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

    def record_batch(self, runs: Sequence["BlockRun"]) -> None:
        """Observe a batch of run-length records in closed form.

        Fig. 4 semantics: ops accumulate in a run counter, and each taken
        terminator credits the run (including its own block) to the
        branch's bucket.  Within one run every event shares a bucket, so
        the per-event credits telescope: the run counter carried in plus
        the ops from the run's start through its last taken branch land
        in that bucket, and the ops after it carry out.  One pass over
        the runs, bit-identical to crediting per expanded event.
        """
        registers = self._registers
        cache = self._bucket_of_block
        run_ops = self._run_ops
        total = 0
        for run in runs:
            block, n, _, ends_entry, takens = run
            n_ops = block.n_ops
            ops = n * n_ops
            total += ops
            if takens is None:
                last = n - 2 if ends_entry else n - 1
            else:
                last = run.last_taken
            if last < 0:
                run_ops += ops
                continue
            bucket = cache.get(block.bid)
            if bucket is None:
                bucket = self.bucket_for(block)
            registers[bucket] += run_ops + n_ops * (last + 1)
            run_ops = n_ops * (n - 1 - last)
        self._run_ops = run_ops
        self.total_ops += total

    def take_vector(self, normalize: bool = True) -> np.ndarray:
        """Compile the register file into a vector and reset it.

        Args:
            normalize: L2-normalise the result (the paper's comparison form).
        """
        vec = np.array(self._registers, dtype=np.float64)
        self._registers = [0.0] * self.n_buckets
        self._run_ops = 0
        if normalize:
            norm = l2_norm(vec)
            if norm > 0.0:
                vec /= norm
        return vec

    def peek_vector(self) -> np.ndarray:
        """Current raw (unnormalised) register contents, without reset."""
        return np.array(self._registers, dtype=np.float64)

    def reset(self) -> None:
        """Clear registers, run counter and op total."""
        self._registers = [0.0] * self.n_buckets
        self._run_ops = 0
        self.total_ops = 0

    def snapshot(self) -> Dict[str, object]:
        """Capture tracker state for checkpointing.

        Registers travel as a compact float64 buffer
        (:func:`~repro.signals.base.pack_registers`), not a Python list,
        so wide register files stay cheap in fleet checkpoints.
        """
        return {
            "registers": pack_registers(np.array(self._registers, dtype=np.float64)),
            "run_ops": self._run_ops,
            "total_ops": self.total_ops,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot` (either the compact
        buffer form or the historical list form)."""
        self._registers = unpack_registers(state["registers"], self.n_buckets).tolist()
        self._run_ops = state["run_ops"]  # type: ignore[assignment]
        self.total_ops = state["total_ops"]  # type: ignore[assignment]
