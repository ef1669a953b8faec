"""The worker: claims cells from a queue and executes them.

``pgss-sim worker --queue DIR`` runs this loop on a fleet, and
:class:`~repro.fleet.LocalService` runs the same loop in its local
worker processes and in the calling process.  Each claimed task is
executed through the one cell executor
(:func:`repro.experiments.parallel._execute_cell`), against a context
rebuilt from the context document embedded in the task — so a cell
produces the same cache bytes whether it runs on a laptop or on a fleet
worker three hosts away.  Results never travel through the queue: they are published
into the shared :class:`ResultCache`, and the queue only records small
outcome documents.

While a cell runs, a daemon heartbeat thread refreshes the task's lease
at a third of the lease interval.  If this process dies, the heartbeats
stop, and the next worker to scan the queue reaps the claim — at once
when the dead worker ran on its own host (the dead-pid check), after
the lease expires otherwise — and retries the cell.  Fleet workers
checkpoint long DETAIL cells periodically, so the retry resumes
mid-cell (DESIGN.md §17); local workers run with
``checkpoint_windows=0`` and restart the cell.

A worker keeps one complete outcome record, of the benchmark it last
simulated, in a :class:`~repro.experiments.runner.RecordSlot` that
every cell's context shares: its technique cells on that benchmark
replay the record instead of warming the program again (DESIGN.md §19).
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..errors import FleetError
from ..experiments.parallel import DEFAULT_TIMEOUT_S, _execute_cell
from ..experiments.runner import RecordSlot
from .queue import DEFAULT_LEASE_S, ClaimedTask, JobQueue

__all__ = ["DEFAULT_CHECKPOINT_WINDOWS", "DEFAULT_POLL_S", "Worker", "run_worker"]

#: Seconds an idle worker sleeps between queue scans.
DEFAULT_POLL_S = 0.5

#: Windows between two mid-cell checkpoint saves on fleet workers.
DEFAULT_CHECKPOINT_WINDOWS = 32


class Worker:
    """Claims, executes, heartbeats, and retires queue tasks.

    Args:
        queue: the shared :class:`JobQueue` (or a directory path).
        worker_id: stable identity recorded in leases and outcomes;
            defaults to ``<host>:<pid>:<token>``.
        timeout_s: per-cell wall-clock budget (enforced in-process via
            ``SIGALRM``).
        poll_s: idle sleep between scans when no task is claimable.
        drain: exit once the queue has no pending tasks and no active
            leases, instead of waiting for new work forever.
        max_cells: stop after executing this many cells (0 = unlimited);
            mainly for tests and batch-scheduler time slicing.
        checkpoint_windows: trace-cell checkpoint interval in windows
            (0 disables mid-cell checkpoints).
        progress: callable receiving one line per claimed/finished cell.
    """

    def __init__(
        self,
        queue: "JobQueue | Path | str",
        worker_id: Optional[str] = None,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        poll_s: float = DEFAULT_POLL_S,
        drain: bool = False,
        max_cells: int = 0,
        checkpoint_windows: int = DEFAULT_CHECKPOINT_WINDOWS,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(Path(queue))
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        )
        self.timeout_s = timeout_s
        self.poll_s = max(float(poll_s), 0.01)
        self.drain = drain
        self.max_cells = int(max_cells)
        self.checkpoint_windows = int(checkpoint_windows)
        self.progress = progress
        self.executed = 0
        self.records = RecordSlot()

    def _emit(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    # ------------------------------------------------------------------

    def run(self) -> int:
        """The worker loop; returns the number of cells executed."""
        while True:
            if self.max_cells and self.executed >= self.max_cells:
                return self.executed
            task = self.queue.claim_next(self.worker_id)
            if task is None:
                if self.drain and self.queue.drained():
                    return self.executed
                time.sleep(self.poll_s)
                continue
            self.run_one(task)

    def run_one(self, task: ClaimedTask) -> Dict[str, Any]:
        """Execute one claimed task to an outcome record."""
        self._emit(
            f"{self.worker_id} claimed {task.cell.cell_id} "
            f"(attempt {task.attempts}/{1 + task.retries})"
        )
        self.queue.append_log(
            task.name,
            f"claim cell={task.cell.cell_id} worker={self.worker_id} "
            f"attempt={task.attempts}/{1 + task.retries}",
        )
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(task, stop), daemon=True
        )
        beat.start()
        try:
            record = _execute_cell(
                task.spec_doc,
                task.cell,
                self.timeout_s,
                task.checkpoint_dir,
                self.checkpoint_windows,
                self.records,
            )
        except Exception as exc:  # _execute_cell is defensive; belt+braces
            record = {
                "status": "error",
                "seconds": 0.0,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            stop.set()
            beat.join(timeout=5.0)
        self.executed += 1
        error = str(record.get("error", "") or "")
        self.queue.append_log(
            task.name,
            f"finish cell={task.cell.cell_id} worker={self.worker_id} "
            f"status={record['status']} "
            f"seconds={float(record.get('seconds', 0.0)):.1f}"
            + (f" error={error}" if error else ""),
        )
        if record["status"] == "ok":
            task.complete(record)
        else:
            task.fail(record)
        self._emit(
            f"{self.worker_id} finished {task.cell.cell_id}: "
            f"{record['status']} ({record.get('seconds', 0.0):.1f}s)"
        )
        return record

    def _heartbeat_loop(self, task: ClaimedTask, stop: threading.Event) -> None:
        interval = self.queue.lease_s / 3.0
        while not stop.wait(interval):
            try:
                task.heartbeat()
            except OSError:
                # A failed heartbeat (queue dir unreachable) is not fatal
                # here; the lease simply risks expiring and being retried.
                pass


def run_worker(
    queue_dir: Path,
    lease_s: float = DEFAULT_LEASE_S,
    **kwargs: Any,
) -> int:
    """Convenience wrapper used by the CLI: build a worker and run it."""
    if not Path(queue_dir).exists():
        raise FleetError(f"queue directory {queue_dir} does not exist")
    worker = Worker(JobQueue(Path(queue_dir), lease_s=lease_s), **kwargs)
    return worker.run()
