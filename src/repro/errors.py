"""Exception hierarchy for the PGSS-Sim framework.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch framework errors without
accidentally swallowing programming mistakes such as ``TypeError``.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProgramError",
    "SimulationError",
    "SnapshotError",
    "StreamExhausted",
    "SamplingError",
    "EstimateError",
    "ClusteringError",
    "CacheError",
    "OrchestrationError",
    "FleetError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class ProgramError(ReproError):
    """A synthetic program or basic block is malformed."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class SnapshotError(SimulationError):
    """A checkpoint snapshot does not match the component restoring it."""


class StreamExhausted(ReproError):
    """A program stream ran out of events while more are required.

    Raised by helpers that *must* consume a fixed number of operations;
    plain iteration simply stops instead.

    Attributes:
        partial: the events consumed before the stream ended.  Consuming
            them *is* destructive — the stream has already advanced — so
            they are attached here rather than silently discarded.
    """

    def __init__(self, message: str = "", partial: Sequence[Any] = ()) -> None:
        super().__init__(message)
        self.partial: Tuple[Any, ...] = tuple(partial)


class SamplingError(ReproError):
    """A sampling technique was configured or driven incorrectly."""


class EstimateError(SamplingError, ValueError):
    """A statistic was requested with inputs it is undefined for.

    Subclasses :class:`ValueError` as well as :class:`SamplingError` so
    generic numeric callers (``except ValueError``) and framework
    callers (``except ReproError``) both catch it — e.g. a percent
    error against a zero true IPC.
    """


class ClusteringError(ReproError):
    """k-means clustering could not be performed on the given data."""


class CacheError(ReproError):
    """A result-cache payload or on-disk entry is unusable.

    Raised when a cache key payload contains values that cannot be
    serialised to JSON losslessly (silently stringifying them could
    collapse distinct configurations onto one key).
    """


class OrchestrationError(ReproError):
    """The experiment service was configured or driven incorrectly."""


class FleetError(OrchestrationError):
    """The distributed job queue or a fleet worker was misused.

    Subclasses :class:`OrchestrationError` because the queue is the
    experiment service's one execution path; callers that already handle
    orchestration failures handle fleet failures for free.
    """
