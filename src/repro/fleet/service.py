"""The experiment service: the one supported way to run experiments.

Every driver — ``pgss-sim run-all``, ``figure``, ``report``, the
``jobs`` CLI, and any future sweep — goes through the same four-verb
facade::

    service = LocalService(ctx, jobs=4)          # or QueueService(ctx, dir)
    handle  = service.submit(figures="2,12")     # enqueue cells
    status  = service.wait(handle)               # or poll service.status()
    text    = service.fetch(handle)              # assemble the report
    service.cancel(handle)                       # abandon pending work

Two backends implement the interface, over one execution path:

* :class:`QueueService` — the fleet backend.  ``submit()`` writes tasks
  into a shared :class:`~repro.fleet.queue.JobQueue` directory and
  returns immediately; any number of ``pgss-sim worker`` processes on
  any number of hosts execute them, and ``wait()`` just polls the queue.
* :class:`LocalService` — the single-host backend: a
  :class:`QueueService` over a private temporary queue.  ``wait()``
  starts ``jobs - 1`` local :class:`~repro.fleet.worker.Worker`
  processes and drains the queue in the calling process as the last
  worker, so ``jobs=1`` runs every cell in-process.  ``run-all --jobs
  N`` is literally ``submit`` + ``wait`` + ``fetch`` on this backend.

Both publish results exclusively through the content-addressed
:class:`~repro.experiments.cache.ResultCache`, so a report fetched after
a fleet run is byte-identical to one fetched after a serial run.
"""

from __future__ import annotations

import abc
import multiprocessing
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import FleetError, OrchestrationError
from ..experiments.cells import ExperimentCell, enumerate_cells
from ..experiments.parallel import DEFAULT_RETRIES, DEFAULT_TIMEOUT_S
from ..experiments.report import generate_report, resolve_figure_ids
from ..experiments.runner import ExperimentContext
from .queue import DEFAULT_LEASE_S, JobQueue, JobState
from .worker import Worker

__all__ = [
    "ExperimentService",
    "JobHandle",
    "LocalService",
    "QueueService",
]

FigureSpec = Union[str, Sequence[str], None]


@dataclass(frozen=True)
class JobHandle:
    """Opaque reference to one submitted job.

    The ``job_id`` string round-trips through the CLI (``pgss-sim jobs
    status <id>``); ``figures`` carries the submitted figure numbers so
    ``fetch`` can assemble exactly the requested report.
    """

    job_id: str
    figures: Optional[Tuple[str, ...]] = None

    def __str__(self) -> str:
        return self.job_id


class ExperimentService(abc.ABC):
    """Abstract front door: submit experiment cells, poll, fetch figures."""

    def __init__(self, ctx: ExperimentContext) -> None:
        self.ctx = ctx

    # -- the four verbs -------------------------------------------------

    @abc.abstractmethod
    def submit(
        self,
        figures: FigureSpec = None,
        cells: Optional[Sequence[ExperimentCell]] = None,
    ) -> JobHandle:
        """Enqueue a job: either figure ids (default: all) or raw cells."""

    @abc.abstractmethod
    def status(self, handle: Union[JobHandle, str]) -> JobState:
        """Current aggregate state of the job."""

    @abc.abstractmethod
    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        """Block until the job reaches a terminal state (or *timeout_s*)."""

    @abc.abstractmethod
    def cancel(self, handle: Union[JobHandle, str]) -> bool:
        """Prevent pending cells from running; True if anything changed."""

    # -- shared behaviour ----------------------------------------------

    def fetch(
        self,
        handle: Union[JobHandle, str],
        figures: FigureSpec = None,
    ) -> str:
        """Assemble the job's report from the (now warm) result cache.

        Requires the job to be ``done``; fetching earlier would silently
        recompute missing cells in-process, defeating the fleet.
        """
        state = self.status(handle)
        if state.state != "done":
            raise FleetError(
                f"job {state.job_id} is {state.state}, not done; "
                "fetch() only assembles completed jobs "
                f"(counts: {state.counts}, failures: {state.failures})"
            )
        numbers = self._fetch_figures(handle, figures)
        return generate_report(self.ctx, figures=numbers)

    def _fetch_figures(
        self, handle: Union[JobHandle, str], figures: FigureSpec
    ) -> Optional[List[str]]:
        if figures is not None:
            numbers, _ = resolve_figure_ids(figures)
            return numbers
        if isinstance(handle, JobHandle) and handle.figures is not None:
            return list(handle.figures)
        return None

    @staticmethod
    def _job_id(handle: Union[JobHandle, str]) -> str:
        return handle.job_id if isinstance(handle, JobHandle) else str(handle)


class QueueService(ExperimentService):
    """Fleet backend over a shared :class:`JobQueue` directory."""

    def __init__(
        self,
        ctx: ExperimentContext,
        queue_dir: Path,
        lease_s: float = DEFAULT_LEASE_S,
        priority: int = 50,
        retries: int = 1,
        poll_s: float = 0.5,
    ) -> None:
        super().__init__(ctx)
        self.queue = JobQueue(Path(queue_dir), lease_s=lease_s)
        self.priority = priority
        self.retries = retries
        self.poll_s = max(float(poll_s), 0.01)

    @classmethod
    def from_queue(cls, queue_dir: Path, job_id: str) -> "QueueService":
        """Rebuild a service for an existing job from its manifest.

        Lets ``pgss-sim jobs status/fetch/cancel <id>`` run in a fresh
        process: the manifest's context document is authoritative, so the
        report is assembled against exactly the submitted scale,
        machine, cache directory, and benchmark list.
        """
        queue = JobQueue(Path(queue_dir))
        manifest = queue.manifest(job_id)
        ctx = ExperimentContext.from_doc(manifest["spec"])
        return QueueService(ctx, Path(queue_dir))

    def handle(self, job_id: str) -> JobHandle:
        """A full handle (with figure ids) for an existing job."""
        manifest = self.queue.manifest(job_id)
        figures = tuple(manifest.get("figures") or ()) or None
        return JobHandle(job_id, figures)

    def submit(
        self,
        figures: FigureSpec = None,
        cells: Optional[Sequence[ExperimentCell]] = None,
    ) -> JobHandle:
        numbers, modules = resolve_figure_ids(figures)
        if cells is None:
            cells = enumerate_cells(self.ctx, figures=modules)
        job_id = self.queue.submit(
            cells,
            self.ctx.to_doc(),
            figures=numbers,
            priority=self.priority,
            retries=self.retries,
        )
        return JobHandle(job_id, tuple(numbers) if numbers else None)

    def status(self, handle: Union[JobHandle, str]) -> JobState:
        return self.queue.status(self._job_id(handle))

    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        # Orchestration wall clock: bounds how long we poll a shared
        # directory for workers elsewhere; never touches simulated state.
        deadline = (
            None
            if timeout_s is None
            else time.time() + timeout_s  # simlint: disable=DET004
        )
        while True:
            state = self.status(handle)
            if state.finished:
                return state
            if deadline is not None and time.time() >= deadline:  # simlint: disable=DET004
                return state
            time.sleep(self.poll_s)

    def cancel(self, handle: Union[JobHandle, str]) -> bool:
        return self.queue.cancel(self._job_id(handle))

    def fetch(
        self,
        handle: Union[JobHandle, str],
        figures: FigureSpec = None,
    ) -> str:
        if figures is None and not isinstance(handle, JobHandle):
            handle = self.handle(str(handle))
        return super().fetch(handle, figures=figures)


#: Idle sleep between queue scans of local workers: a scan of a private
#: local directory is cheap, and the last worker notices the end of the
#: job at most this long after it.
_LOCAL_POLL_S = 0.05


class LocalService(QueueService):
    """Single-host backend: a private :class:`JobQueue` drained locally.

    ``submit`` enqueues the cells into a temporary queue directory owned
    by this service instance; ``wait`` starts ``jobs - 1`` worker
    processes and drains the queue in the calling process as the last
    worker.  The workers are ordinary :class:`Worker` loops without
    mid-cell checkpoints, so timeouts, retries and a worker that dies
    (its lease is reaped by the dead-pid check) are handled by the queue
    exactly as on a fleet.  Handles live in this service instance — a
    local job cannot be polled from another process, which is exactly
    what :class:`QueueService` exists for.

    Args:
        ctx: experiment context; workers rebuild an equivalent one from
            its :meth:`~ExperimentContext.to_doc` document.
        jobs: worker count; 1 runs every cell in the calling process.
        timeout_s: per-cell wall-clock budget (None disables it).
        retries: additional attempts after a failed/timed-out one.
        progress: callable receiving the workers' per-cell lines.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        jobs: int = 1,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise OrchestrationError(f"jobs must be >= 1, got {jobs}")
        self._queue_dir = tempfile.TemporaryDirectory(prefix="pgss-local-queue-")
        super().__init__(
            ctx,
            Path(self._queue_dir.name),
            retries=max(int(retries), 0),
            poll_s=_LOCAL_POLL_S,
        )
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.progress = progress

    def _drain(self) -> None:
        Worker(
            self.queue,
            timeout_s=self.timeout_s,
            poll_s=self.poll_s,
            drain=True,
            checkpoint_windows=0,
            progress=self.progress,
        ).run()

    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        """Run the queue dry with local workers (*timeout_s* is unused)."""
        state = self.status(handle)
        if state.finished:
            return state
        fork = multiprocessing.get_context("fork")
        workers = [
            fork.Process(target=self._drain, daemon=True)
            for _ in range(self.jobs - 1)
        ]
        for proc in workers:
            proc.start()
        # Join each worker as soon as it exits: a dead worker's pid must
        # not linger as a zombie, or the dead-pid lease check would see
        # it alive and its cell would wait for the lease to expire.
        reapers = [threading.Thread(target=proc.join, daemon=True) for proc in workers]
        for reaper in reapers:
            reaper.start()
        try:
            self._drain()
        except BaseException:
            for proc in workers:
                proc.terminate()
            raise
        finally:
            for reaper in reapers:
                reaper.join()
        return self.status(handle)
