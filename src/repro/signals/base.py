"""The phase-signal tracker contract and shared serialisation helpers.

A *signal tracker* turns the engine's dynamic event stream into periodic
fixed-width vectors that the online phase classifier compares.  The
original (and default) signal is the paper's basic-block vector; the
layer exists so other projections of program behaviour — memory-access
vectors, or weighted concatenations — plug into the same engine
attachment point and classifier without either side changing.

Every tracker implements :class:`SignalTracker`: ``record_batch`` to
accumulate a run-length batch of dynamic block executions,
``take_vector`` to compile-and-reset the register file at a sampling
period boundary, and ``snapshot``/``restore`` for engine checkpoints.

Register files are checkpointed through :func:`pack_registers` /
:func:`unpack_registers`: a raw little-endian float64 buffer instead of
a Python list, so a 1024-bucket wide-BBV or MAV register file costs
8 KiB in a pickled fleet checkpoint rather than a list of boxed floats.
``unpack_registers`` still accepts the historical list payloads, so
checkpoints written before the compact form restore unchanged.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, Protocol, Sequence

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..program.stream import BlockRun

__all__ = ["SignalTracker", "pack_registers", "unpack_registers"]


class SignalTracker(Protocol):
    """Structural type of a phase-signal tracker.

    The engine duck-types its attached tracker against this protocol:
    every mode calls :meth:`record_batch` once per run-length batch, and
    the sampling plans call :meth:`take_vector` at each signal period
    boundary.
    """

    #: Dynamic operations observed since construction / :meth:`reset`.
    total_ops: int

    def record_batch(self, runs: Sequence["BlockRun"]) -> None:
        """Observe a batch of run-length records: every expanded event,
        in order, exactly as if observed one at a time."""
        ...

    def take_vector(self, normalize: bool = True) -> np.ndarray:
        """Compile the register file into a vector and reset it."""
        ...

    def reset(self) -> None:
        """Clear all accumulated state."""
        ...

    def snapshot(self) -> Dict[str, object]:
        """Capture tracker state for checkpointing."""
        ...

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        ...


def pack_registers(registers: np.ndarray) -> bytes:
    """Compact checkpoint form of a register file.

    A raw little-endian float64 buffer: 8 bytes per bucket in the
    pickled checkpoint instead of a boxed Python float per bucket.
    """
    arr = np.ascontiguousarray(registers, dtype=np.float64)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr = arr.astype("<f8")
    return arr.tobytes()


def unpack_registers(payload: object, n_buckets: int) -> np.ndarray:
    """Rebuild a register file from :func:`pack_registers` output.

    Also accepts the historical ``list[float]`` payloads written by
    pre-compact snapshots, so old fleet checkpoints stay restorable.
    """
    if isinstance(payload, (bytes, bytearray)):
        registers = np.frombuffer(payload, dtype="<f8").astype(
            np.float64, copy=True
        )
    elif isinstance(payload, np.ndarray) or isinstance(payload, (list, tuple)):
        registers = np.array(payload, dtype=np.float64)
    else:
        raise ConfigurationError(
            f"unsupported register payload type {type(payload).__name__}"
        )
    if registers.shape != (n_buckets,):
        raise ConfigurationError(
            f"register payload has {registers.shape[0]} buckets, "
            f"tracker expects {n_buckets}; was the checkpoint written "
            f"with a different signal configuration?"
        )
    return registers
