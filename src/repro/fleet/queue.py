"""Filesystem-backed work queue for the distributed experiment fleet.

A queue is a plain directory, shareable over NFS or rsync, holding one
job per submitted experiment and one task per
:class:`~repro.experiments.cells.ExperimentCell`.  Layout::

    queue/
      jobs/<job>.json       manifest: task list, figure ids, context document
      tasks/<task>.json     a pending cell (priority encoded in the name)
      claims/<task>.json    lease held by a worker (created with O_EXCL)
      done/<task>.json      terminal outcome record
      cancel/<job>          cancellation marker (empty file)
      checkpoints/<task>/   mid-cell engine checkpoints of the claim holder
      logs/<task>.log       append-only per-task execution log (workers)

The claim protocol mirrors the result cache's ``.claim`` files
(DESIGN.md §12): ``O_EXCL`` creation is the atomic test-and-set, so any
number of workers on any number of hosts sharing the directory claim
each task exactly once.  Unlike cache claims, queue claims are *leases*:
the claim file records the attempt it runs and a wall-clock expiry that
the executing worker refreshes by heartbeat, and an expired lease is
reaped by whichever worker scans the task next — the attempt is charged
to the task file and the cell is retried (resuming from its latest
checkpoint) or, with the retry budget exhausted, failed.  A claim file
that is created but not yet written is dated by its mtime, so a scan
does not reap it as torn.

The task file holds the attempts that ended without finishing the cell,
so it is rewritten only when one does (a failed attempt within budget,
a reaped lease); a claim that completes its cell leaves it untouched
until it is removed.

Everything a worker needs to execute a cell travels in the task file:
the serialized cell plus the experiment context's JSON document
(scale, machine, cache directory, benchmark list), so submitters and
workers only have to agree on the queue directory.

All timestamps in this module are orchestration wall clock — they gate
lease expiry and never influence simulated state, which stays a pure
function of (workload, config, seed).
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..errors import FleetError
from ..experiments.cells import ExperimentCell

__all__ = [
    "DEFAULT_LEASE_S",
    "ClaimedTask",
    "JobQueue",
    "JobState",
    "QueueSweep",
]

#: Default lease duration; a worker heartbeats at a third of this, so a
#: lease only expires after several missed heartbeats.
DEFAULT_LEASE_S = 60.0

#: Priority bounds; higher runs earlier.
_PRIORITY_MIN, _PRIORITY_MAX, _PRIORITY_DEFAULT = 0, 99, 50

#: Terminal task statuses a done-record may carry.
_TERMINAL_STATUSES = ("ok", "error", "timeout", "failed", "cancelled")


def _cell_to_doc(cell: ExperimentCell) -> Dict[str, Any]:
    return {
        "figure": cell.figure,
        "benchmark": cell.benchmark,
        "params": [[k, v] for k, v in cell.params],
    }


def _cell_from_doc(doc: Dict[str, Any]) -> ExperimentCell:
    return ExperimentCell(
        doc["figure"],
        doc["benchmark"],
        tuple((str(k), v) for k, v in doc["params"]),
    )


def _now() -> float:
    # Lease expiry is inherently wall-clock: it must be comparable
    # between hosts that share the queue directory.  It never reaches
    # simulated state.
    return time.time()  # simlint: disable=DET004


def _write_json_atomic(path: Path, doc: Dict[str, Any]) -> None:
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    )
    try:
        with tmp.open("w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


@dataclass
class JobState:
    """Aggregated status of one job.

    Attributes:
        job_id: the job identifier.
        state: rollup — ``pending`` | ``running`` | ``done`` | ``failed``
            | ``cancelled``.
        counts: tasks per per-task state (``pending`` / ``running`` /
            ``ok`` / ``failed`` / ``cancelled``).
        total: number of tasks in the job.
        failures: cell id -> error message for terminally failed tasks.
        logs: cell id -> path of the per-task execution log, for every
            task whose worker has written one (running or finished).
    """

    job_id: str
    state: str
    counts: Dict[str, int]
    total: int
    failures: Dict[str, str] = field(default_factory=dict)
    logs: Dict[str, str] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True when no task can make further progress."""
        return self.state in ("done", "failed", "cancelled")


@dataclass
class QueueSweep:
    """What a maintenance sweep reclaimed (see :meth:`JobQueue.sweep`).

    Attributes:
        stale_leases: expired/dead leases reaped (tasks requeued or
            failed).
        requeued: tasks returned to the pending pool.
        failed: tasks finalised as failed because their retry budget was
            already spent when the lease was reaped.
        orphan_files: leftover ``.tmp`` litter removed.
        orphan_checkpoints: checkpoint directories with no live task.
    """

    stale_leases: int = 0
    requeued: int = 0
    failed: int = 0
    orphan_files: int = 0
    orphan_checkpoints: int = 0


@dataclass
class ClaimedTask:
    """A leased task: the unit a worker executes.

    The worker must either :meth:`complete` or :meth:`fail` the task (or
    let the lease expire, which charges an attempt).  :meth:`heartbeat`
    extends the lease while the cell runs.
    """

    queue: "JobQueue"
    name: str
    cell: ExperimentCell
    job_id: str
    spec_doc: Dict[str, Any]
    attempts: int
    retries: int
    worker: str

    @property
    def checkpoint_dir(self) -> Path:
        """Directory for this task's mid-cell checkpoints."""
        return self.queue.root / "checkpoints" / self.name

    def heartbeat(self) -> None:
        """Refresh the lease expiry; call at least every ``lease_s / 3``."""
        self.queue._write_claim(self.name, self.worker, self.attempts)

    def complete(self, record: Dict[str, Any]) -> None:
        """Publish a successful outcome and retire the task."""
        self.queue._finalize(self, dict(record, status="ok"))

    def fail(self, record: Dict[str, Any]) -> None:
        """Record a failed attempt: requeue within budget, else finalise."""
        if self.attempts <= self.retries:
            # Charge this attempt to the task file, then release the lease
            # so any worker can retry; checkpoints are kept so the retry
            # resumes mid-cell.
            self.queue._charge_attempt(self.name, self.attempts)
            self.queue._release_claim(self.name)
            return
        self.queue._finalize(self, dict(record, status="failed"))


class JobQueue:
    """Shared-directory work queue with leases, priorities, and retries."""

    def __init__(
        self, directory: Path, lease_s: float = DEFAULT_LEASE_S
    ) -> None:
        if lease_s <= 0:
            raise FleetError(f"lease_s must be positive, got {lease_s}")
        self.root = Path(directory)
        self.lease_s = float(lease_s)
        for sub in (
            "jobs",
            "tasks",
            "claims",
            "done",
            "cancel",
            "checkpoints",
            "logs",
        ):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Submission side.

    def submit(
        self,
        cells: Sequence[ExperimentCell],
        spec_doc: Dict[str, Any],
        figures: Optional[Sequence[str]] = None,
        priority: int = _PRIORITY_DEFAULT,
        retries: int = 1,
        job_id: Optional[str] = None,
    ) -> str:
        """Enqueue *cells* as one job; returns the job id.

        Args:
            cells: the work units (already deduplicated by the caller).
            spec_doc: JSON context document
                (:meth:`~repro.experiments.runner.ExperimentContext.to_doc`).
            figures: figure ids the job was derived from (used by
                ``fetch`` to assemble the report).
            priority: 0-99; higher-priority tasks are claimed first.
            retries: additional attempts a task gets after a failed or
                lease-expired one.
            job_id: explicit id (tests); defaults to a fresh UUID.
        """
        if not cells:
            raise FleetError("cannot submit a job with no cells")
        if not _PRIORITY_MIN <= priority <= _PRIORITY_MAX:
            raise FleetError(
                f"priority must be in [{_PRIORITY_MIN}, {_PRIORITY_MAX}], "
                f"got {priority}"
            )
        job = job_id or uuid.uuid4().hex[:12]
        if (self.root / "jobs" / f"{job}.json").exists():
            raise FleetError(f"job {job!r} already exists in this queue")
        task_names: List[str] = []
        for index, cell in enumerate(cells):
            # Lexicographic task-file order is claim order: inverted
            # priority first, then job, then submission index.
            name = f"{_PRIORITY_MAX - priority:02d}.{job}.{index:05d}"
            task_names.append(name)
            _write_json_atomic(
                self.root / "tasks" / f"{name}.json",
                {
                    "cell": _cell_to_doc(cell),
                    "job": job,
                    "priority": priority,
                    "retries": int(retries),
                    "attempts": 0,
                    "spec": spec_doc,
                },
            )
        _write_json_atomic(
            self.root / "jobs" / f"{job}.json",
            {
                "job": job,
                "tasks": task_names,
                "figures": list(figures) if figures else [],
                "spec": spec_doc,
                "submitted": _now(),
            },
        )
        return job

    def jobs(self) -> List[str]:
        """All job ids in this queue, sorted."""
        return sorted(
            p.stem for p in (self.root / "jobs").glob("*.json")
        )

    def manifest(self, job_id: str) -> Dict[str, Any]:
        """The job's manifest document."""
        doc = _read_json(self.root / "jobs" / f"{job_id}.json")
        if doc is None:
            raise FleetError(f"unknown job {job_id!r} in {self.root}")
        return doc

    def cancel(self, job_id: str) -> bool:
        """Mark *job_id* cancelled; pending tasks will never be claimed.

        A cell already running is allowed to finish (its results are
        cached and harmless); returns False if the job was already
        finished or cancelled.
        """
        self.manifest(job_id)  # raises on unknown job
        marker = self.root / "cancel" / job_id
        if marker.exists() or self.status(job_id).finished:
            return False
        marker.touch()
        return True

    def cancelled(self, job_id: str) -> bool:
        """True if a cancellation marker exists for *job_id*."""
        return (self.root / "cancel" / job_id).exists()

    # ------------------------------------------------------------------
    # Worker side.

    def claim_next(self, worker: str) -> Optional[ClaimedTask]:
        """Claim the highest-priority pending task, or ``None``.

        Scans tasks in priority order; for each, reaps an expired lease
        (charging an attempt), retires tasks of cancelled jobs, and
        otherwise attempts the ``O_EXCL`` claim.
        """
        tasks = self.root / "tasks"
        # Sort plain names: every claim sorts the whole directory, and
        # comparing Path objects cost more than the rest of the scan.
        for entry in sorted(os.listdir(tasks)):
            if not entry.endswith(".json"):
                continue
            name = entry[: -len(".json")]
            task_path = tasks / entry
            doc = _read_json(task_path)
            if doc is None:
                continue  # torn write in progress; next scan sees it
            if self.cancelled(doc["job"]):
                self._retire_cancelled(name, doc)
                continue
            claim_path = self._claim_path(name)
            if claim_path.exists():
                if not self._reap_if_stale(name, doc):
                    continue
                doc = _read_json(task_path)
                if doc is None:
                    continue  # reap exhausted the retry budget
            attempt = int(doc.get("attempts", 0)) + 1
            if not self._try_claim(name, worker, attempt):
                continue
            # The task may have been finished (or claimed, failed and
            # requeued) between reading its doc and winning the claim:
            # trust only what is on disk now.
            doc = _read_json(task_path)
            if doc is None or (self.root / "done" / f"{name}.json").exists():
                self._release_claim(name)
                continue
            # An attempt that failed in that window moved the count on.
            charged = int(doc.get("attempts", 0))
            if charged + 1 != attempt:
                attempt = charged + 1
                self._write_claim(name, worker, attempt)
            return ClaimedTask(
                queue=self,
                name=name,
                cell=_cell_from_doc(doc["cell"]),
                job_id=doc["job"],
                spec_doc=doc["spec"],
                attempts=attempt,
                retries=int(doc.get("retries", 0)),
                worker=worker,
            )
        return None

    def log_path(self, name: str) -> Path:
        """Path of the task's execution log (created lazily by workers)."""
        return self.root / "logs" / f"{name}.log"

    def append_log(self, name: str, line: str) -> None:
        """Append one timestamped line to the task's execution log.

        The log is plain text, append-only, and purely diagnostic: it
        records claim/finish events so a human can reconstruct what a
        worker did to a task after the fact.  Failures to write it are
        swallowed — diagnostics must never take a worker down.
        """
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(_now()))
        try:
            with self.log_path(name).open("a") as fh:
                fh.write(f"{stamp} {line}\n")
        except OSError:
            pass

    def pending_tasks(self) -> int:
        """Tasks not yet claimed or finished (includes retry-pending)."""
        count = 0
        for task_path in (self.root / "tasks").glob("*.json"):
            if not self._claim_path(task_path.stem).exists():
                count += 1
        return count

    def active_claims(self) -> int:
        """Leases currently held (live or not yet reaped)."""
        return sum(1 for _ in (self.root / "claims").glob("*.json"))

    def drained(self) -> bool:
        """True when no task remains to claim and no lease is active."""
        return self.pending_tasks() == 0 and self.active_claims() == 0

    # ------------------------------------------------------------------
    # Status side.

    def status(self, job_id: str) -> JobState:
        """Aggregate per-task states into one :class:`JobState`."""
        manifest = self.manifest(job_id)
        counts = {k: 0 for k in ("pending", "running", "ok", "failed", "cancelled")}
        failures: Dict[str, str] = {}
        logs: Dict[str, str] = {}
        cancelled = self.cancelled(job_id)
        for name in manifest["tasks"]:
            done = _read_json(self.root / "done" / f"{name}.json")
            log = self.log_path(name)
            if log.exists():
                logs[self._cell_id_for(name, done)] = str(log)
            if done is not None:
                status = done.get("status", "failed")
                if status == "ok":
                    counts["ok"] += 1
                elif status == "cancelled":
                    counts["cancelled"] += 1
                else:
                    counts["failed"] += 1
                    failures[str(done.get("cell_id", name))] = str(
                        done.get("error", status)
                    )
            elif self._claim_path(name).exists():
                counts["running"] += 1
            elif cancelled:
                counts["cancelled"] += 1
            else:
                counts["pending"] += 1
        total = len(manifest["tasks"])
        if counts["failed"]:
            # Terminal only once nothing is still in flight.
            state = (
                "failed"
                if counts["pending"] == counts["running"] == 0
                else "running"
            )
        elif counts["cancelled"] and counts["running"] == 0:
            state = "cancelled"
        elif counts["ok"] == total:
            state = "done"
        elif counts["running"] or counts["ok"]:
            state = "running"
        else:
            state = "pending"
        return JobState(
            job_id=job_id,
            state=state,
            counts=counts,
            total=total,
            failures=failures,
            logs=logs,
        )

    def _cell_id_for(
        self, name: str, done: Optional[Dict[str, Any]]
    ) -> str:
        """Best-effort cell id of a task: done record, task file, or name."""
        if done is not None and done.get("cell_id"):
            return str(done["cell_id"])
        task_doc = _read_json(self.root / "tasks" / f"{name}.json")
        if task_doc is not None and "cell" in task_doc:
            try:
                return _cell_from_doc(task_doc["cell"]).cell_id
            except (KeyError, TypeError):
                pass
        return name

    def outcomes(self, job_id: str) -> List[Dict[str, Any]]:
        """Per-task done-records of *job_id*, in task order."""
        out = []
        for name in self.manifest(job_id)["tasks"]:
            doc = _read_json(self.root / "done" / f"{name}.json")
            if doc is not None:
                out.append(doc)
        return out

    # ------------------------------------------------------------------
    # Maintenance.

    def sweep(self) -> QueueSweep:
        """Reap expired leases and remove orphaned litter.

        Run by ``pgss-sim clear-cache --queue DIR`` (and safe to run any
        time): tasks whose holder died resume being claimable, tasks out
        of retry budget are finalised as failed, stray ``.tmp`` files
        and checkpoints of finished tasks are deleted.
        """
        report = QueueSweep()
        for claim_path in sorted((self.root / "claims").glob("*.json")):
            name = claim_path.stem
            task_doc = _read_json(self.root / "tasks" / f"{name}.json")
            if task_doc is None:
                # Claim with no task: the finalising worker died between
                # unlinks; nothing left to execute.
                self._release_claim(name)
                report.orphan_files += 1
                continue
            if self._reap_if_stale(name, task_doc):
                report.stale_leases += 1
                if (self.root / "done" / f"{name}.json").exists():
                    report.failed += 1
                else:
                    report.requeued += 1
        for sub in ("tasks", "claims", "done", "jobs"):
            for tmp in (self.root / sub).glob("*.tmp"):
                try:
                    tmp.unlink()
                    report.orphan_files += 1
                except OSError:
                    pass
        for ckpt_dir in (self.root / "checkpoints").iterdir():
            if not ckpt_dir.is_dir():
                continue
            if not (self.root / "tasks" / f"{ckpt_dir.name}.json").exists():
                self._remove_checkpoints(ckpt_dir.name)
                report.orphan_checkpoints += 1
        return report

    # ------------------------------------------------------------------
    # Internals.

    def _claim_path(self, name: str) -> Path:
        return self.root / "claims" / f"{name}.json"

    def _claim_doc(self, worker: str, attempt: int) -> Dict[str, Any]:
        return {
            "worker": worker,
            "attempt": attempt,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "expires": _now() + self.lease_s,
        }

    def _try_claim(self, name: str, worker: str, attempt: int) -> bool:
        try:
            fd = os.open(
                self._claim_path(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        except OSError:
            # No O_EXCL semantics: accept the (harmless, deterministic)
            # risk of duplicated work rather than wedging the queue.
            self._write_claim(name, worker, attempt)
            return True
        with os.fdopen(fd, "w") as fh:
            json.dump(self._claim_doc(worker, attempt), fh)
        return True

    def _write_claim(self, name: str, worker: str, attempt: int) -> None:
        _write_json_atomic(
            self._claim_path(name), self._claim_doc(worker, attempt)
        )

    def _charge_attempt(self, name: str, attempt: int) -> None:
        """Record in the task file that *attempt* ended unfinished."""
        task_path = self.root / "tasks" / f"{name}.json"
        doc = _read_json(task_path)
        if doc is not None:
            doc["attempts"] = attempt
            _write_json_atomic(task_path, doc)

    def _release_claim(self, name: str) -> None:
        try:
            self._claim_path(name).unlink()
        except OSError:
            pass

    def _lease_stale(self, claim_doc: Dict[str, Any]) -> bool:
        """A lease is stale when expired, or same-host with a dead pid."""
        try:
            expires = float(claim_doc.get("expires", 0.0))
        except (TypeError, ValueError):
            return True
        if expires <= _now():
            return True
        if claim_doc.get("host") == socket.gethostname():
            try:
                pid = int(claim_doc.get("pid", 0))
            except (TypeError, ValueError):
                return True
            if pid <= 0:
                return True
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                return False  # e.g. EPERM: alive under another user
        return False

    def _reap_if_stale(self, name: str, task_doc: Dict[str, Any]) -> bool:
        """Reap an expired lease; True if the claim was released."""
        claim_path = self._claim_path(name)
        claim_doc = _read_json(claim_path)
        if claim_doc is None:
            # Unreadable claim: already released, or written by a holder
            # that may still be finishing it.  It holds the task like a
            # lease dated by its mtime, so a persistent torn file is
            # reaped without stranding the task.
            try:
                written = claim_path.stat().st_mtime
            except OSError:
                return True
            if written + self.lease_s > _now():
                return False
            self._release_claim(name)
            return True
        if not self._lease_stale(claim_doc):
            return False
        # The dead holder's attempt is used up.  Within budget, charge it
        # to the task file before releasing the lease, so the next claim
        # runs the following attempt; otherwise finalise now so the job
        # can reach a terminal state without the cell ever succeeding.
        try:
            attempt = int(claim_doc["attempt"])
        except (KeyError, TypeError, ValueError):
            attempt = int(task_doc.get("attempts", 0)) + 1
        if attempt <= int(task_doc.get("retries", 0)):
            self._charge_attempt(name, attempt)
            self._release_claim(name)
            return True
        self._finalize_name(
            name,
            task_doc,
            {
                "status": "failed",
                "seconds": 0.0,
                "attempts": attempt,
                "error": (
                    f"lease expired after {attempt} attempt(s); "
                    f"last holder {claim_doc.get('worker', '?')} died"
                ),
                "worker": str(claim_doc.get("worker", "?")),
            },
        )
        return True

    def _retire_cancelled(self, name: str, task_doc: Dict[str, Any]) -> None:
        self._finalize_name(
            name,
            task_doc,
            {
                "status": "cancelled",
                "seconds": 0.0,
                "error": "job cancelled before the cell ran",
                "worker": "",
            },
        )

    def _finalize(self, task: ClaimedTask, record: Dict[str, Any]) -> None:
        self._finalize_name(
            task.name,
            {"job": task.job_id, "cell": _cell_to_doc(task.cell)},
            dict(record, worker=task.worker, attempts=task.attempts),
        )

    def _finalize_name(
        self, name: str, task_doc: Dict[str, Any], record: Dict[str, Any]
    ) -> None:
        """Write the done-record, then retire task, claim, checkpoints."""
        cell = _cell_from_doc(task_doc["cell"])
        doc = {
            "task": name,
            "job": task_doc.get("job", ""),
            "cell_id": cell.cell_id,
            "status": record.get("status", "failed"),
            "seconds": float(record.get("seconds", 0.0)),
            "attempts": int(record.get("attempts", task_doc.get("attempts", 0))),
            "error": str(record.get("error", "")),
            "worker": str(record.get("worker", "")),
        }
        if doc["status"] not in _TERMINAL_STATUSES:
            doc["status"] = "failed"
        if "cache" in record:
            # The executing worker's result-cache counters (run-all sums
            # them into its ``cache:`` line).
            doc["cache"] = {k: int(v) for k, v in record["cache"].items()}
        if self.log_path(name).exists():
            doc["log"] = str(self.log_path(name))
        _write_json_atomic(self.root / "done" / f"{name}.json", doc)
        try:
            (self.root / "tasks" / f"{name}.json").unlink()
        except OSError:
            pass
        self._release_claim(name)
        self._remove_checkpoints(name)

    def _remove_checkpoints(self, name: str) -> None:
        ckpt_dir = self.root / "checkpoints" / name
        if not ckpt_dir.exists():
            return
        for path in sorted(ckpt_dir.glob("**/*"), reverse=True):
            try:
                path.unlink() if path.is_file() else path.rmdir()
            except OSError:
                pass
        try:
            ckpt_dir.rmdir()
        except OSError:
            pass
