"""Checkpoint / livepoint support (paper Sections 2.2 and 7).

TurboSMARTS relies on *livepoints* — small stored warm-state snapshots that
let samples be simulated in any order.  The paper's future-work section
notes "the livepoints used in [15] could easily be used to accelerate
PGSS"; :class:`CheckpointStore` implements exactly that: snapshots of the
engine (stream position + caches + predictor) taken at chosen op offsets,
restorable in any order.

:class:`CheckpointFile` persists one such snapshot (plus arbitrary
caller extras) to disk with the same atomic write-to-tmp +
``os.replace`` discipline as the result cache, which is what makes long
detailed cells resumable across worker deaths in the experiment fleet
(DESIGN.md §17): the claim holder saves periodically, and whichever
worker next claims the cell restores the latest snapshot instead of
re-simulating from op 0.
"""

from __future__ import annotations

import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import SimulationError
from .engine import Mode, SimulationEngine

__all__ = ["Checkpoint", "CheckpointFile", "CheckpointStore"]

#: Pickle protocol pinned for checkpoint files (protocol 4 is supported
#: by every Python this package targets, so mixed-version fleets can
#: read each other's checkpoints).
_PICKLE_PROTOCOL = 4

#: Version of the checkpoint payload.  Version 2 engine states carry the
#: pipeline's relative timing state (``pipeline_timing``); a payload of
#: an earlier version cannot resume byte-identically and is discarded.
_FORMAT = 2


@dataclass(frozen=True)
class Checkpoint:
    """One stored warm-state snapshot.

    Attributes:
        op_offset: dynamic op count at which the snapshot was taken.
        state: opaque engine state (see ``SimulationEngine.snapshot``).
    """

    op_offset: int
    state: Dict[str, Any]


class CheckpointStore:
    """An ordered collection of engine checkpoints.

    Build one with :meth:`collect`, then jump the engine to any stored
    offset with :meth:`restore_nearest` — the engine lands on the snapshot
    at or before the requested offset and only the remainder needs
    re-simulation.
    """

    def __init__(self) -> None:
        self._checkpoints: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._checkpoints)

    @property
    def offsets(self) -> List[int]:
        """Stored op offsets, ascending."""
        return [c.op_offset for c in self._checkpoints]

    def add(self, engine: SimulationEngine) -> Checkpoint:
        """Snapshot *engine* now and store it."""
        cp = Checkpoint(op_offset=engine.ops_completed, state=engine.snapshot())
        if self._checkpoints and cp.op_offset <= self._checkpoints[-1].op_offset:
            raise SimulationError("checkpoints must be added at increasing offsets")
        self._checkpoints.append(cp)
        return cp

    @classmethod
    def collect(
        cls,
        engine: SimulationEngine,
        interval_ops: int,
        mode: Mode = Mode.FUNC_WARM,
    ) -> "CheckpointStore":
        """Run *engine* to completion, snapshotting every *interval_ops*.

        The engine runs in *mode* (functional warming by default, so each
        checkpoint holds warm caches — a livepoint).
        """
        if interval_ops <= 0:
            raise SimulationError("interval_ops must be positive")
        store = cls()
        store.add(engine)
        while not engine.exhausted:
            engine.run(mode, interval_ops)
            if not engine.exhausted:
                store.add(engine)
        return store

    def restore_nearest(self, engine: SimulationEngine, op_offset: int) -> Checkpoint:
        """Restore the latest checkpoint at or before *op_offset*.

        Returns the checkpoint used.  Raises if none qualifies.
        """
        candidate = None
        for cp in self._checkpoints:
            if cp.op_offset <= op_offset:
                candidate = cp
            else:
                break
        if candidate is None:
            raise SimulationError(
                f"no checkpoint at or before op offset {op_offset}"
            )
        engine.restore(candidate.state)
        return candidate


class CheckpointFile:
    """Atomic on-disk persistence for one resumable computation.

    Holds at most one checkpoint — the latest — because a resumable
    sequential computation only ever restarts from its newest snapshot.
    Publication is write-to-unique-tmp + ``os.replace``, so a reader
    (including a worker that claims the cell after this one died) only
    ever observes the previous complete snapshot or the new one, never a
    torn file.  An unreadable file (killed mid-``os.replace`` on a
    non-atomic filesystem, bad blocks), or one written in an earlier
    payload format, is deleted and treated as absent: the computation
    restarts from op 0, which is slower but still byte-identical.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def load(self) -> Optional[Dict[str, Any]]:
        """The stored payload (``op_offset`` / ``state`` / ``extras``).

        Returns ``None`` when no usable checkpoint exists.
        """
        if not self.path.exists():
            return None
        try:
            with self.path.open("rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != _FORMAT
                or "state" not in payload
            ):
                raise SimulationError("malformed checkpoint payload")
        except Exception:
            # A corrupt checkpoint must not wedge the cell forever; the
            # run restarts from the beginning instead.
            self.clear()
            return None
        return payload

    def save(
        self,
        op_offset: int,
        state: Dict[str, Any],
        extras: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist a snapshot taken at *op_offset*, replacing any prior one."""
        payload = {
            "format": _FORMAT,
            "op_offset": int(op_offset),
            "state": state,
            "extras": dict(extras or {}),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp, self.path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def clear(self) -> None:
        """Delete the stored checkpoint (after the computation completes)."""
        try:
            self.path.unlink()
        except OSError:
            pass
