"""Distributed resumable experiment fleet.

The package behind ``pgss-sim jobs`` and ``pgss-sim worker``:

* :mod:`repro.fleet.queue` — the shared-directory :class:`JobQueue`
  (O_EXCL claims, leases with heartbeats, priorities, retry budgets).
* :mod:`repro.fleet.worker` — the :class:`Worker` loop that claims
  cells, executes them (fleet workers with mid-cell checkpointing), and
  publishes through the result cache.
* :mod:`repro.fleet.service` — the :class:`ExperimentService` facade
  (``submit`` / ``status`` / ``fetch`` / ``cancel``), the one supported
  way to run experiments, with :class:`QueueService` (fleet) and
  :class:`LocalService` (a private queue drained by local workers)
  backends.
"""

from .queue import (
    DEFAULT_LEASE_S,
    ClaimedTask,
    JobQueue,
    JobState,
    QueueSweep,
)
from .service import ExperimentService, JobHandle, LocalService, QueueService
from .worker import DEFAULT_CHECKPOINT_WINDOWS, DEFAULT_POLL_S, Worker, run_worker

__all__ = [
    "DEFAULT_CHECKPOINT_WINDOWS",
    "DEFAULT_LEASE_S",
    "DEFAULT_POLL_S",
    "ClaimedTask",
    "ExperimentService",
    "JobHandle",
    "JobQueue",
    "JobState",
    "LocalService",
    "QueueService",
    "QueueSweep",
    "Worker",
    "run_worker",
]
