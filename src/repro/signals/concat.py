"""Weighted concatenation of several phase signals into one vector.

:class:`ConcatenatedSignal` fans every engine batch out to its child
trackers and compiles their period vectors into one: each child vector
is normalised, scaled by its weight, concatenated, and the whole vector
re-normalised.  Because the children are unit vectors before weighting,
the weights set the *relative influence* of each signal on the angle
metric directly — ``(1, 1)`` means a phase change visible to either
signal moves the combined vector, which is the BBV+MAV default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .base import SignalTracker
from .vector import l2_norm

if TYPE_CHECKING:
    from ..program.stream import BlockRun

__all__ = ["ConcatenatedSignal"]


class ConcatenatedSignal:
    """Combine several :class:`~repro.signals.SignalTracker` instances.

    Args:
        trackers: child trackers, each observing the full event stream.
        weights: per-child positive weights applied to the normalised
            child vectors before concatenation; defaults to equal
            weights.
    """

    def __init__(
        self,
        trackers: Sequence[SignalTracker],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not trackers:
            raise ConfigurationError("ConcatenatedSignal needs >= 1 tracker")
        self.trackers: List[SignalTracker] = list(trackers)
        if weights is None:
            weights = [1.0] * len(self.trackers)
        if len(weights) != len(self.trackers):
            raise ConfigurationError(
                f"{len(self.trackers)} trackers but {len(weights)} weights"
            )
        if any(w <= 0.0 for w in weights):
            raise ConfigurationError("signal weights must be positive")
        self.weights: List[float] = [float(w) for w in weights]

    @property
    def total_ops(self) -> int:
        """Ops observed (children see identical streams; first reports)."""
        return self.trackers[0].total_ops

    def record_batch(self, runs: Sequence["BlockRun"]) -> None:
        """Fan a run-length batch out to every child tracker."""
        for tracker in self.trackers:
            tracker.record_batch(runs)

    def take_vector(self, normalize: bool = True) -> np.ndarray:
        """Compile and reset every child, concatenating the results.

        With ``normalize`` (the comparison form) each child vector is
        unit-normalised and weighted before concatenation and the result
        is re-normalised; without it the raw per-child register contents
        are concatenated unweighted (units are per-signal counts).
        """
        if not normalize:
            return np.concatenate(
                [tracker.take_vector(normalize=False) for tracker in self.trackers]
            )
        parts = [
            weight * tracker.take_vector(normalize=True)
            for tracker, weight in zip(self.trackers, self.weights)
        ]
        vec = np.concatenate(parts)
        norm = l2_norm(vec)
        if norm > 0.0:
            vec /= norm
        return vec

    def reset(self) -> None:
        """Reset every child tracker."""
        for tracker in self.trackers:
            tracker.reset()

    def snapshot(self) -> Dict[str, object]:
        """Capture every child's state for checkpointing."""
        return {"parts": [tracker.snapshot() for tracker in self.trackers]}

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        parts = state["parts"]
        if not isinstance(parts, list) or len(parts) != len(self.trackers):
            raise ConfigurationError(
                "snapshot does not match this ConcatenatedSignal's children"
            )
        for tracker, part in zip(self.trackers, parts):
            tracker.restore(part)
