"""Span tracer that times the simulator's layers from outside ``src/``.

The ledger never edits the program.  For a traced pass it replaces a fixed
list of public functions and methods (:func:`targets`) with timing
wrappers, and puts the originals back afterwards.  Each call becomes one
span: ``(id, parent, name, unit, start, end, n)``, kept in memory and
written out as JSON lines when the run ends.

* ``parent`` is the innermost enclosing span on the same thread, so a
  span's *self time* is its duration minus its children's durations.
* ``unit`` is the workload unit (``program/technique`` or a figure cell
  id) the span ran for.
* ``n`` is a per-call count: ops for ``SimulationEngine.run``, 1 for a
  result-cache miss, cells for a queue submit, 1 for a successful claim.

Only coarse boundaries are wrapped: a wrapper costs about 1.5 us per call
on the 2-core VM the ledger was built on, which per-``BlockRun`` methods
(tens of thousands of calls per pass) would multiply into a visible share
of the layers they time.

Span times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``: spans written by fleet worker processes share the
time base of the process that merges them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: One recorded call: (id, parent id, name, unit, start, end, n).
Span = Tuple[str, Optional[str], str, str, float, float, int]

#: Golden-suite labels of the eight techniques, keyed by class name.
TECHNIQUE_LABELS = {
    "FullDetail": "full",
    "Smarts": "smarts",
    "TurboSmarts": "turbosmarts",
    "SimPoint": "simpoint",
    "OnlineSimPoint": "online_simpoint",
    "Pgss": "pgss",
    "TwoPhaseStratified": "stratified",
    "RankedSetSampling": "ranked",
}

#: Engine modes, in the order the per-layer metrics list them.
MODES = ("func_warm", "detail", "detail_warm", "func_fast")

#: A fleet worker's whole process, from before it imports the simulator
#: to its exit.
PROCESS = "fleet.worker.process"

#: A fleet worker's start-up: from the top of its entry script until the
#: simulator is imported.
STARTUP = "fleet.worker.startup"

#: A fleet worker's idle sleep between queue scans.
SLEEP = "fleet.worker.sleep"

#: The ledger's own process blocked until fleet workers exit.
WAIT = "ledger.wait"

#: Spans whose self time no layer accounts for: a technique's ``.run``
#: (its plan code and whatever it calls that is not wrapped), a figure
#: cell, a fleet worker's poll loop and the rest of its process.
CATCH_ALL = frozenset(
    [f"sampling.{label}" for label in TECHNIQUE_LABELS.values()]
    + ["experiments.cell", "fleet.worker", PROCESS]
)


def _arg(args: Sequence[Any], kwargs: Dict[str, Any], index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def targets() -> List[Tuple[Any, str, Dict[str, Any]]]:
    """Everything the tracer wraps: ``(owner, attribute, wrap options)``.

    Module-level functions imported by name are patched at each call
    site, because patching the defining module would not reach them.
    """
    from repro import clustering, sampling
    from repro.clustering import bic
    from repro.cpu.engine import SimulationEngine
    from repro.experiments import parallel, runner
    from repro.experiments.cache import ResultCache
    from repro.fleet import service
    from repro.fleet.queue import JobQueue
    from repro.fleet.worker import Worker
    from repro.phase.classifier import OnlinePhaseClassifier
    from repro.program.stream import ProgramStream
    from repro.sampling import full, ranked, simpoint
    from repro.sampling.session import SamplingSession
    from repro.signals import BbvTracker, MavTracker
    from repro.stats import ci, sampling_theory

    cache_miss = {
        "pre": lambda a, k: a[0].misses,
        "count": lambda a, k, result, before: a[0].misses - before,
    }
    out: List[Tuple[Any, str, Dict[str, Any]]] = [
        (ProgramStream, "next_events", {"name": "program.next_events"}),
        (
            SimulationEngine,
            "run",
            {
                "name": lambda a, k: "cpu." + _arg(a, k, 1, "mode").value,
                "count": lambda a, k, result, before: result.ops,
            },
        ),
        (BbvTracker, "record_batch", {"name": "signals.bbv.record_batch"}),
        (MavTracker, "record_batch", {"name": "signals.mav.record_batch"}),
        (BbvTracker, "take_vector", {"name": "signals.take_vector"}),
        (MavTracker, "take_vector", {"name": "signals.take_vector"}),
        (OnlinePhaseClassifier, "observe", {"name": "phase.observe"}),
        (SamplingSession, "run_segment", {"name": "sampling.session"}),
        (ResultCache, "json", dict(name="experiments.cache.json", **cache_miss)),
        (ResultCache, "trace", dict(name="experiments.cache.trace", **cache_miss)),
        (service, "generate_report", {"name": "experiments.report"}),
        (
            parallel,
            "run_cell",
            {
                "name": "experiments.cell",
                "unit_of": lambda a, k: _arg(a, k, 1, "cell").cell_id,
            },
        ),
        (
            JobQueue,
            "submit",
            {
                "name": "fleet.queue.submit",
                "count": lambda a, k, result, before: len(_arg(a, k, 1, "cells")),
            },
        ),
        (
            JobQueue,
            "claim_next",
            {
                "name": "fleet.queue.claim_next",
                "count": lambda a, k, result, before: int(result is not None),
            },
        ),
        (JobQueue, "status", {"name": "fleet.queue.status"}),
        (Worker, "run", {"name": "fleet.worker"}),
        (Worker, "run_one", {"name": "fleet.worker.task"}),
    ]
    for module in (full, sampling, runner):
        out.append(
            (module, "collect_reference_trace", {"name": "sampling.reference_trace"})
        )
    for module in (simpoint, bic, clustering):
        out.append((module, "kmeans", {"name": "clustering.kmeans"}))
    for module in (ci, sampling_theory, ranked):
        out.append((module, "t_value", {"name": "stats.t_value"}))
    for cls_name in TECHNIQUE_LABELS:
        cls = getattr(sampling, cls_name)
        out.append(
            (
                cls,
                "run",
                {
                    "name": lambda a, k: "sampling."
                    + TECHNIQUE_LABELS.get(type(a[0]).__name__, type(a[0]).__name__),
                },
            )
        )
    return out


class Tracer:
    """Installs timing wrappers and collects spans in memory.

    Use as a context manager around one traced pass::

        with tracer:
            workload.run_pass()
        spans = tracer.take()
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Unit id stamped on spans opened while it is set.
        self.unit = ""
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._prefix = f"{os.getpid()}:"

    def _stack(self) -> List[str]:
        stack: Optional[List[str]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(
        self,
        original: Callable[..., Any],
        name: Any,
        count: Optional[Callable[..., int]] = None,
        pre: Optional[Callable[..., Any]] = None,
        unit_of: Optional[Callable[..., str]] = None,
    ) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = tracer._prefix + str(next(tracer._ids))
            parent = stack[-1] if stack else None
            span_name = name(args, kwargs) if callable(name) else name
            outer_unit = tracer.unit
            if unit_of is not None:
                tracer.unit = unit_of(args, kwargs)
            before = pre(args, kwargs) if pre is not None else None
            n = 0
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result, before)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, span_name, tracer.unit, start, end, n)
                )
                tracer.unit = outer_unit

        return wrapper

    def install(self) -> None:
        """Wrap every target; the originals are kept for :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for owner, attr, options in targets():
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, **options))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None) -> Iterator[None]:
        """Record the enclosed block, from *start* if given, as one span.

        For the ledger's own code; spans opened inside it are its children.
        """
        stack = self._stack()
        sid = self._prefix + str(next(self._ids))
        parent = stack[-1] if stack else None
        stack.append(sid)
        begin = time.perf_counter() if start is None else start
        try:
            yield
        finally:
            stack.pop()
            self.spans.append(
                (sid, parent, name, self.unit, begin, time.perf_counter(), 0)
            )

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def dump(spans: Iterable[Span], path: Path, **fields: Any) -> None:
    """Append *spans* to *path* as JSON lines, adding *fields* to each."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for sid, parent, name, unit, start, end, n in spans:
            record = {
                "id": sid,
                "parent": parent,
                "name": name,
                "unit": unit,
                "start": start,
                "end": end,
                "n": n,
                **fields,
            }
            fh.write(json.dumps(record) + "\n")


def load(path: Path) -> List[Span]:
    """Read spans written by :func:`dump` (extra fields are dropped)."""
    out: List[Span] = []
    with path.open() as fh:
        for line in fh:
            r = json.loads(line)
            out.append(
                (r["id"], r["parent"], r["name"], r["unit"], r["start"], r["end"], r["n"])
            )
    return out


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for sid, parent, _name, _unit, start, end, _n in spans:
        if parent in own:
            own[parent] -= end - start
    return own


#: Span names every pass reports, whether or not the layer ran.
LAYER_NAMES = (
    [f"cpu.{mode}" for mode in MODES]
    + [
        "program.next_events",
        "signals.bbv.record_batch",
        "signals.mav.record_batch",
        "signals.take_vector",
        "phase.observe",
        "clustering.kmeans",
        "stats.t_value",
        "sampling.session",
        "sampling.reference_trace",
    ]
    + [f"sampling.{label}" for label in TECHNIQUE_LABELS.values()]
    + [
        "experiments.cell",
        "experiments.report",
        "experiments.cache.json",
        "experiments.cache.trace",
        "fleet.queue.submit",
        "fleet.queue.claim_next",
        "fleet.queue.status",
        "fleet.worker",
        "fleet.worker.task",
        STARTUP,
        SLEEP,
    ]
)


def layer_metrics(
    spans: Sequence[Span], window: Tuple[float, float]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    For every span name ``X`` that occurred: ``X.calls``, ``X.s``
    (inclusive seconds), ``X.self_s`` and ``X.pct`` (self seconds as a
    percentage of the pass's wall time).  Layers that did not run are
    reported as zero for every name in :data:`LAYER_NAMES`, so each pass
    yields the same key set.  Spans of fleet workers overlap each other,
    so their shares may add up to more than 100%.

    ``trace.coverage_pct`` is the self time of every span outside
    :data:`CATCH_ALL` as a share of the time there was to account for:
    the pass's wall time, less its :data:`WAIT` for fleet workers, plus
    the length of each worker's :data:`PROCESS` span.
    """
    wall = window[1] - window[0]
    own = self_times(spans)
    calls: Dict[str, int] = {}
    incl: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    n_sum: Dict[str, int] = {}
    cell_durations: List[float] = []
    for sid, _parent, name, _unit, start, end, n in spans:
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        n_sum[name] = n_sum.get(name, 0) + n
        if name == "experiments.cell":
            cell_durations.append(end - start)

    out: Dict[str, Tuple[float, str]] = {}
    for name in sorted(set(LAYER_NAMES) | set(calls)):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (incl.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.pct"] = (100.0 * self_s.get(name, 0.0) / wall, "%")

    for mode in MODES:
        ops = n_sum.get(f"cpu.{mode}", 0)
        secs = self_s.get(f"cpu.{mode}", 0.0)
        out[f"cpu.{mode}.ops"] = (ops, "ops")
        out[f"cpu.{mode}.mops"] = (ops / secs / 1e6 if secs > 0 else 0.0, "Mops/s")
    technique_self = sum(
        v for k, v in self_s.items() if k[len("sampling."):] in TECHNIQUE_LABELS.values()
    )
    out["sampling.techniques.self_s"] = (technique_self, "s")
    out["sampling.techniques.pct"] = (100.0 * technique_self / wall, "%")
    cache_calls = calls.get("experiments.cache.json", 0) + calls.get(
        "experiments.cache.trace", 0
    )
    misses = n_sum.get("experiments.cache.json", 0) + n_sum.get(
        "experiments.cache.trace", 0
    )
    cache_self = self_s.get("experiments.cache.json", 0.0) + self_s.get(
        "experiments.cache.trace", 0.0
    )
    out["experiments.cache.hits"] = (cache_calls - misses, "count")
    out["experiments.cache.misses"] = (misses, "count")
    out["experiments.cache.pct"] = (100.0 * cache_self / wall, "%")
    if len(cell_durations) >= 2:
        deciles = statistics.quantiles(cell_durations, n=10)
        p50, p90 = statistics.median(cell_durations), deciles[8]
    else:
        p50 = p90 = cell_durations[0] if cell_durations else 0.0
    out["experiments.cell_p50_s"] = (p50, "s")
    out["experiments.cell_p90_s"] = (p90, "s")
    claims = n_sum.get("fleet.queue.claim_next", 0)
    tasks = n_sum.get("fleet.queue.submit", 0)
    out["fleet.queue.claim_next.empty"] = (
        calls.get("fleet.queue.claim_next", 0) - claims,
        "count",
    )
    out["fleet.queue.claims_per_task"] = (claims / tasks if tasks else 0.0, "ratio")
    out["fleet.worker.idle_s"] = (self_s.get(SLEEP, 0.0), "s")
    # Time to account for: the pass in this process, less its blocked wait
    # for fleet workers, plus each worker's whole process.
    lanes = wall - self_s.get(WAIT, 0.0) + incl.get(PROCESS, 0.0)
    attributed = sum(
        secs for name, secs in self_s.items() if name not in CATCH_ALL and name != WAIT
    )
    out["trace.coverage_pct"] = (100.0 * attributed / lanes, "%")
    return out
