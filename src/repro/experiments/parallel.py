"""The cell executor: run one experiment cell under a time budget.

Every paper figure decomposes into independent, deterministic
:class:`~repro.experiments.cells.ExperimentCell` units that publish only
through the concurrency-safe result cache.  :func:`_execute_cell` is the
one place a cell is executed: a :class:`~repro.fleet.worker.Worker`
calls it for every task it claims, whether that worker is a fleet
process on another host or one of the local workers behind
:class:`~repro.fleet.LocalService`.  It rebuilds the experiment context
from the JSON document the task carries, runs the cell for its
cache-warming side effect only, and returns a small status record.  A
per-cell timeout is enforced with ``SIGALRM``; retries, worker death and
progress lines are the queue's and the worker's business.

Because the figure assembly afterwards is always the same serial code
reading pure cache hits, any number of workers produces the same report
bytes as one.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import OrchestrationError
from .cells import ExperimentCell, run_cell
from .runner import ExperimentContext, RecordSlot

__all__ = ["DEFAULT_RETRIES", "DEFAULT_TIMEOUT_S"]

#: Default per-cell wall-clock budget inside a worker.
DEFAULT_TIMEOUT_S = 600.0

#: Default number of retries after a failed or timed-out attempt.
DEFAULT_RETRIES = 1


class _CellTimeout(OrchestrationError):
    """Raised inside a worker when a cell exceeds its time budget."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise _CellTimeout("cell exceeded its time budget")


def _execute_cell(
    doc: Dict[str, Any],
    cell: ExperimentCell,
    timeout_s: Optional[float],
    checkpoint_dir: Optional[Path] = None,
    checkpoint_windows: int = 0,
    records: Optional[RecordSlot] = None,
) -> Dict[str, Any]:
    """Run one cell in a context rebuilt from *doc*.

    *doc* is an :meth:`ExperimentContext.to_doc` document; the checkpoint
    settings and the record slot are the executing worker's own.  Returns
    a small status record; results stay in the on-disk cache.  The
    timeout is enforced with ``SIGALRM``, so a hung cell cannot hold its
    worker forever.
    :func:`run_cell` is looked up at call time, so a wrapper installed
    on this module sees every cell.
    """
    ctx = ExperimentContext.from_doc(doc, checkpoint_dir, checkpoint_windows, records)
    # SIGALRM can only be armed on the main thread; a worker driven from
    # a helper thread (tests, embedders) runs without the in-process
    # timeout and relies on the queue's lease expiry instead.
    use_alarm = (
        bool(timeout_s)
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    previous_handler = None
    # Host timing here measures orchestration wall time for reporting; it
    # never influences simulated state.
    start = time.perf_counter()  # simlint: disable=DET005
    try:
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(max(int(math.ceil(timeout_s or 0.0)), 1))
        run_cell(ctx, cell)
        status, error = "ok", ""
    except _CellTimeout:
        status, error = "timeout", f"exceeded {timeout_s:.0f}s budget"
    except Exception as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.alarm(0)
            # Workers also run in the caller's process (LocalService's
            # last worker, tests); leaving _on_alarm installed would turn
            # any later alarm in the host into a stray _CellTimeout.
            if previous_handler is not None:
                signal.signal(signal.SIGALRM, previous_handler)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    return {
        "status": status,
        "seconds": elapsed,
        "error": error,
        "cache": ctx.cache.stats(),
    }
