"""Resumable engine checkpoints on disk (DESIGN.md §17).

:class:`CheckpointFile` persists one engine snapshot
(``SimulationEngine.snapshot``) plus arbitrary caller extras to disk with
the same atomic write-to-tmp + ``os.replace`` discipline as the result
cache, which is what makes long detailed cells resumable across worker
deaths in the experiment fleet: the claim holder saves periodically, and
whichever worker next claims the cell restores the latest snapshot
instead of re-simulating from op 0.
"""

from __future__ import annotations

import os
import pickle
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import SimulationError

__all__ = ["CheckpointFile"]

#: Pickle protocol pinned for checkpoint files (protocol 4 is supported
#: by every Python this package targets, so mixed-version fleets can
#: read each other's checkpoints).
_PICKLE_PROTOCOL = 4

#: Version of the checkpoint payload.  Version 2 engine states carry the
#: pipeline's relative timing state (``pipeline_timing``); a payload of
#: an earlier version cannot resume byte-identically and is discarded.
_FORMAT = 2


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
