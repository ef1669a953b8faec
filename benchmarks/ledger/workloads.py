"""The ledger's four workloads, and the child process that measures one.

``run.py`` starts ``python3 workloads.py <workload> ...`` once per
workload, so peak RSS and import state belong to that workload alone.
The child sets up, runs passes until ``--seconds`` have elapsed, checks
the outputs, and writes one JSON document to ``--result``.  A pass runs
every unit of the workload once, and each unit lasts well under a second,
so a run repeats every unit many times.

* ``sample``: SMARTS, RankedSet, PGSS (BBV), PGSS (MAV) and
  TwoPhaseStratified on ``164.gzip`` and ``adv.footprint_step`` at
  QUICK scale, in-process.
* ``reference``: reference trace, FullDetail, SimPoint and OnlineSimPoint
  on ``164.gzip``, ``183.equake``, ``300.twolf`` and
  ``adv.footprint_step`` at QUICK scale, in-process.
* ``figures-local``: the CI figure smoke, ``pgss-sim --scale quick
  run-all --figures 2,10,12,ext-signals``, on ``164.gzip`` (47 cells),
  as ``LocalService(jobs=1)`` submit, wait and fetch on a fresh cache,
  then a warm re-run.
* ``figures-fleet``: the same cells through ``QueueService`` and two
  ``pgss-sim worker --drain`` processes, then a fetch.

``pass_norm_s`` is the median pass time with each unit's wall time
normalised by :func:`gauge`, a fixed loop timed around every unit: the
pass time on a host whose neighbours do not slow it.  The set-up time is
normalised the same way, by the gauge readings just before the process
starts and just after its set-up.

Why each workload exists, and which layer it should move, is in
README.md.
"""

from __future__ import annotations

import time

_T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
for _path in (SRC, ROOT / "tests", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from _golden import canonical_result  # noqa: E402
from repro.config import Scale  # noqa: E402
from repro.experiments import ExperimentContext, parallel  # noqa: E402
from repro.experiments.report import resolve_figure_ids  # noqa: E402
from repro.fleet import LocalService, QueueService  # noqa: E402
from repro.program import Program, get_workload  # noqa: E402
from repro.sampling import (  # noqa: E402
    FullDetail,
    OnlineSimPoint,
    OnlineSimPointConfig,
    Pgss,
    PgssConfig,
    RankedSetConfig,
    RankedSetSampling,
    SamplingResult,
    SimPoint,
    SimPointConfig,
    Smarts,
    SmartsConfig,
    TwoPhaseStratified,
    TwoPhaseStratifiedConfig,
    full,
)
from compare import summary  # noqa: E402
from gauge import GAUGE_REF_S, gauge  # noqa: E402
from tracer import WAIT, Span, Tracer, dump, layer_metrics, load  # noqa: E402

#: The figures of the CI smoke (``run-all --figures``).
FIG_IDS = "2,10,12,ext-signals"

#: The benchmark the figure workloads run the smoke on.  All ten take
#: 12-16 s per cold run, too long to repeat within one run.
FIG_BENCHMARKS = ["164.gzip"]

#: Worker processes of the figure workloads: the box has two cores.
JOBS = 2

#: Seconds a fleet worker may take to exit once the queue is drained.
WORKER_EXIT_S = 30.0

clock = time.perf_counter


def seeded(program: Program, seed: int) -> Program:
    """Re-seed *program*'s stream RNG from ``(seed, name)``; 0 keeps it."""
    if seed:
        material = f"{seed}:{program.name}".encode()
        program.seed = int.from_bytes(hashlib.sha256(material).digest()[:4], "big")
    return program


def digest(value: Any) -> str:
    """sha256 of a JSON-able value (strings are hashed as they are)."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace: Any) -> str:
    """sha256 over a reference trace's window arrays."""
    h = hashlib.sha256()
    for array in (trace.ops, trace.cycles, trace.bbvs):
        h.update(array.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class PassRecord:
    """Everything one pass measured and checked.

    An untraced pass runs :func:`gauge` before its first timed unit and
    after every one, and scales each unit's wall time by ``GAUGE_REF_S``
    over the mean of the two gauge readings around it.  A unit that runs
    for seconds is cut into segments by :meth:`tick`, each scaled by the
    readings at its own ends.  A traced pass skips the gauge, whose time
    no span would account for.
    """

    def __init__(self, index: int, tracer: Optional[Tracer]) -> None:
        self.index = index
        self.tracer = tracer
        self.traced = tracer is not None
        #: Unit id -> wall seconds of this pass's run of it.
        self.times: Dict[str, float] = {}
        #: Unit id -> the same, normalised by the gauge (untraced only).
        self.norm: Dict[str, float] = {}
        self.report_norm_s: Optional[float] = None
        #: Timing state: the last gauge reading, when the current segment
        #: began, the unit's normalised seconds so far and its gauge time.
        self._gauge: Optional[float] = None
        self._mark = 0.0
        self._norm = 0.0
        self._gauge_s = 0.0
        self.window = (0.0, 0.0)
        self.duration = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.errors: Dict[str, str] = {}
        self.estimates: Dict[str, float] = {}
        self.err_pcts: List[float] = []
        self.detailed_ops = 0
        self.checks: Dict[str, bool] = {}
        self.spans: List[Span] = []
        #: Task claims the fleet's workers logged (0 outside the fleet).
        self.claims = 0

    def start(self) -> float:
        """Start timing a unit; read the gauge first if nothing has yet."""
        if not self.traced and self._gauge is None:
            self._gauge = gauge()
        self._norm = self._gauge_s = 0.0
        self._mark = clock()
        return self._mark

    def tick(self) -> None:
        """End the current segment of the unit and normalise its time."""
        if self.traced or self._gauge is None:
            return
        end = clock()
        before, self._gauge = self._gauge, gauge()
        self._norm += (end - self._mark) * GAUGE_REF_S / ((before + self._gauge) / 2)
        self._mark = clock()
        self._gauge_s += self._mark - end

    def stop(self, started: float) -> Tuple[float, Optional[float]]:
        """Wall seconds since *started* less the gauge's, and normalised."""
        seconds = clock() - started - self._gauge_s
        if self.traced or self._gauge is None:
            return seconds, None
        self.tick()
        return seconds, self._norm

    def record(self, unit_id: str, started: float) -> None:
        """Record the time of unit *unit_id*, started by :meth:`start`."""
        self.times[unit_id], norm = self.stop(started)
        if norm is not None:
            self.norm[unit_id] = norm

    def unit(
        self,
        unit_id: str,
        fn: Callable[[], Any],
        digest_of: Callable[[Any], Any] = canonical_result,
    ) -> Any:
        """Run one unit; record its time and digest, or its error and None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.unit = unit_id
        started = self.start()
        try:
            result = fn()
        except Exception as exc:  # a failed unit is counted, not fatal
            self.failed += 1
            self.errors[unit_id] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            if self.tracer is not None:
                self.tracer.unit = ""
        self.record(unit_id, started)
        self.digests[unit_id] = digest(digest_of(result))
        return result

    def estimate(
        self, unit_id: str, result: SamplingResult, true_ipc: Optional[float]
    ) -> None:
        """Record an IPC estimate, its cost and, given the truth, its error."""
        self.estimates[unit_id] = result.ipc_estimate
        self.detailed_ops += int(result.detailed_ops)
        if true_ipc:
            self.err_pcts.append(abs(result.ipc_estimate - true_ipc) / true_ipc * 100)


class Workload:
    """What ``measure`` drives: set up once, then run passes.

    Args:
        seed: input seed (0 keeps each program's built-in seed).
        smoke: QUICK scale and one program, for the tests.
        tracing: this run traces some of its passes.
        work: this run's scratch directory, which the workload may fill.
    """

    def __init__(self, seed: int, smoke: bool, tracing: bool, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Everything before the first timed pass (counted in setup_s)."""

    def run_pass(self, p: PassRecord) -> None:
        """Run every unit once, recording times, digests and checks in *p*."""
        raise NotImplementedError

    def final_checks(self, passes: List[PassRecord]) -> Dict[str, bool]:
        """Checks that need every pass; run after measuring."""
        return {}


class SimWorkload(Workload):
    """In-process units over a fixed list of seeded programs.

    QUICK scale keeps each unit at 20-200 ms.  At SCALED scale one unit
    takes about 2 s and a pass 5-20 s, too long to repeat within a run.
    """

    PROGRAMS: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, tracing: bool, work: Path) -> None:
        super().__init__(seed, smoke, tracing, work)
        self.scale = Scale.QUICK
        self.names = self.PROGRAMS[:1] if smoke else self.PROGRAMS

    def setup(self) -> None:
        self.programs = {
            name: seeded(get_workload(name, self.scale), self.seed)
            for name in self.names
        }

    def run_pass(self, p: PassRecord) -> None:
        start = clock()
        for name, program in self.programs.items():
            self.run_program(name, program, p)
        p.window = (start, clock())

    def run_program(self, name: str, program: Program, p: PassRecord) -> None:
        raise NotImplementedError


class SampleWorkload(SimWorkload):
    """Online samplers: FUNC_WARM fast-forward dominates their host time."""

    PROGRAMS = ("164.gzip", "adv.footprint_step")

    @staticmethod
    def techniques(scale: Any) -> List[Tuple[str, Callable[[], Any]]]:
        return [
            ("smarts", lambda: Smarts(SmartsConfig.from_scale(scale))),
            ("ranked", lambda: RankedSetSampling(RankedSetConfig.from_scale(scale))),
            ("pgss_bbv", lambda: Pgss(PgssConfig.from_scale(scale))),
            (
                "pgss_mav",
                lambda: Pgss(PgssConfig.from_scale(scale, phase_signal="mav")),
            ),
            (
                "stratified",
                lambda: TwoPhaseStratified(TwoPhaseStratifiedConfig.from_scale(scale)),
            ),
        ]

    def setup(self) -> None:
        super().setup()
        self.truth = {
            name: FullDetail().run(program).ipc_estimate
            for name, program in self.programs.items()
        }
        # Warm-up: lazy imports and first-call set-up happen here, not in
        # the first timed pass.
        for program in self.programs.values():
            for _label, make in self.techniques(self.scale):
                make().run(program)

    def run_program(self, name: str, program: Program, p: PassRecord) -> None:
        for label, make in self.techniques(self.scale):
            unit_id = f"{name}/{label}"
            result = p.unit(unit_id, lambda: make().run(program))
            if result is not None:
                p.estimate(unit_id, result, self.truth[name])


class ReferenceWorkload(SimWorkload):
    """Whole-program DETAIL runs: the pipeline dominates, FUNC_WARM is zero."""

    PROGRAMS = ("164.gzip", "183.equake", "300.twolf", "adv.footprint_step")

    def run_program(self, name: str, program: Program, p: PassRecord) -> None:
        scale = self.scale
        trace = p.unit(
            f"{name}/reference_trace",
            lambda: full.collect_reference_trace(program, scale.trace_window),
            digest_of=trace_digest,
        )
        truth = p.unit(f"{name}/full", lambda: FullDetail().run(program))
        if trace is None or truth is None:
            return
        p.detailed_ops += int(trace.total_ops)
        p.estimate(f"{name}/full", truth, None)
        p.checks[f"{name}: trace.true_ipc == FullDetail IPC"] = (
            trace.true_ipc == truth.ipc_estimate
        )
        samplers: List[Tuple[str, Callable[[], Any]]] = [
            ("simpoint", lambda: SimPoint(SimPointConfig(scale.simpoint_intervals[-1], 3))),
            (
                "online_simpoint",
                lambda: OnlineSimPoint(
                    OnlineSimPointConfig(scale.simpoint_intervals[1], 0.10)
                ),
            ),
        ]
        for label, make in samplers:
            unit_id = f"{name}/{label}"
            result = p.unit(unit_id, lambda: make().run(program, trace=trace))
            if result is not None:
                p.estimate(unit_id, result, truth.ipc_estimate)


def _cache_listing(directory: Path) -> Dict[str, Tuple[int, int]]:
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(directory.iterdir())
    }


@contextlib.contextmanager
def cell_ticks(p: PassRecord) -> Iterator[None]:
    """Cut *p*'s running unit into segments at every figure cell's end."""
    original = parallel.run_cell

    def run_cell(*args: Any, **kwargs: Any) -> Any:
        try:
            return original(*args, **kwargs)
        finally:
            p.tick()

    parallel.run_cell = run_cell
    try:
        yield
    finally:
        parallel.run_cell = original


class FiguresLocal(Workload):
    """``run-all`` on a fresh cache, then again on the warm cache.

    Cells run in this process (``run-all``'s default ``--jobs 1``), so the
    gauge can be read after each one and the tracer sees every cell.
    Figure workloads are seed-fixed: the figures define their own inputs.
    """

    jobs = 1

    def setup(self) -> None:
        _numbers, modules = resolve_figure_ids(FIG_IDS)
        for module in modules or []:
            importlib.import_module(f"repro.experiments.{module}")

    def context(self, directory: Path) -> ExperimentContext:
        return ExperimentContext(
            Scale.QUICK, cache_dir=directory / "cache", benchmarks=FIG_BENCHMARKS
        )

    def local_run(self, ctx: ExperimentContext, p: PassRecord) -> Optional[str]:
        """submit + wait + fetch on a LocalService; the report or None."""
        service = LocalService(ctx, jobs=self.jobs)
        handle = service.submit(figures=FIG_IDS)
        state = service.wait(handle)
        p.attempted += state.total
        p.failed += state.total - state.counts["ok"]
        p.errors.update(state.failures)
        return service.fetch(handle) if state.state == "done" else None

    def run_pass(self, p: PassRecord) -> None:
        directory = self.work / f"pass{p.index}"
        ctx = self.context(directory)
        with cell_ticks(p):
            start = p.start()
            cold = self.local_run(ctx, p)
            p.record("cold", start)
            listing = _cache_listing(ctx.cache.directory)
            warm_ctx = self.context(directory)
            warm_start = p.start()
            warm = self.local_run(warm_ctx, p)
            p.window = (start, clock())
            _seconds, p.report_norm_s = p.stop(warm_start)
        p.checks["warm re-run has no cache misses"] = (
            warm_ctx.cache.misses == 0 and _cache_listing(ctx.cache.directory) == listing
        )
        p.checks["cold report == warm report"] = cold is not None and warm == cold
        p.digests["report"] = digest(cold or "")
        shutil.rmtree(directory, ignore_errors=True)


class FiguresFleet(FiguresLocal):
    """The same cells through the filesystem queue and two worker processes."""

    jobs = JOBS

    def start_worker(
        self, queue_dir: Path, log: Path, mode: str, path: Path
    ) -> "subprocess.Popen[bytes]":
        """Start a ``pgss-sim worker --drain`` that writes its spans or
        gauge readings to *path* (see ``fleet_worker.py``)."""
        cmd = [
            sys.executable,
            str(HERE / "fleet_worker.py"),
            mode,
            str(path),
            "worker",
            "--queue",
            str(queue_dir),
            "--drain",
            "--quiet",
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with log.open("wb") as fh:
            return subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT)

    def run_pass(self, p: PassRecord) -> None:
        """Time the job from submit to the first worker's exit.

        The cells run in the workers, so the workers' gauge readings,
        one after each task, normalise the job's time.
        """
        directory = self.work / f"pass{p.index}"
        ctx = self.context(directory)
        queue_dir = directory / "queue"
        service = QueueService(ctx, queue_dir)
        mode = "spans" if p.traced else "gauge"
        outputs = [directory / f"worker{i}.{mode}" for i in range(JOBS)]
        workers: List["subprocess.Popen[bytes]"] = []
        text: Optional[str] = None
        job_s = 0.0
        start = clock()
        try:
            handle = service.submit(figures=FIG_IDS)
            workers = [
                self.start_worker(queue_dir, directory / f"worker{i}.log", mode, out)
                for i, out in enumerate(outputs)
            ]
            # A --drain worker exits only once no task is pending or
            # leased, so the first exit marks the end of the job.  WNOWAIT
            # leaves the exited worker for its Popen to reap.
            waiting = p.tracer.span(WAIT) if p.tracer else contextlib.nullcontext()
            with waiting:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
                state = service.status(handle)
                if not state.finished:
                    for w in workers:
                        w.wait(timeout=WORKER_EXIT_S)
                    state = service.status(handle)
            job_s = clock() - start
            p.attempted += state.total
            p.failed += state.total - state.counts["ok"]
            p.errors.update(state.failures)
            if state.state == "done":
                fetch_start = p.start()
                text = service.fetch(handle)
                _seconds, p.report_norm_s = p.stop(fetch_start)
                p.checks["fetch has no cache misses"] = ctx.cache.misses == 0
        finally:
            end = clock()
            for w in workers:
                try:
                    w.wait(timeout=WORKER_EXIT_S)
                except subprocess.TimeoutExpired:
                    w.kill()
                    w.wait()
        p.window = (start, end)
        p.times["job"] = job_s
        if p.traced:
            for path in outputs:
                if path.exists():
                    p.spans.extend(load(path))
        else:
            readings = [
                g for path in outputs if path.exists() for g in json.loads(path.read_text())
            ]
            # Scale by the mean reading, not the mean speed: a worker that
            # shares its core reads the gauge at full speed in some time
            # slices and not at all in others, and the mean of the speeds
            # would weight the fast readings too heavily.
            if readings:
                p.norm["job"] = job_s * GAUGE_REF_S / statistics.fmean(readings)
        p.checks["workers exited cleanly"] = all(w.returncode == 0 for w in workers)
        p.checks["fleet job done"] = text is not None
        p.digests["report"] = digest(text or "")
        # Every execution of a task starts with one "claim" line in the
        # task's log, so claims above the task count are duplicated work.
        p.claims = sum(
            log.read_text().count(" claim cell=")
            for log in (queue_dir / "logs").glob("*.log")
        )
        shutil.rmtree(directory, ignore_errors=True)

    def final_checks(self, passes: List[PassRecord]) -> Dict[str, bool]:
        """The fleet report must equal a local ``jobs=2`` run's report."""
        directory = self.work / "local-reference"
        check = PassRecord(len(passes), None)
        local = self.local_run(self.context(directory), check)
        shutil.rmtree(directory, ignore_errors=True)
        fleet = passes[0].digests.get("report")
        return {"fleet report == local report": local is not None and digest(local) == fleet}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "sample": SampleWorkload,
    "reference": ReferenceWorkload,
    "figures-local": FiguresLocal,
    "figures-fleet": FiguresFleet,
}


def measure(
    workload: Workload, seconds: float, trace: bool, smoke: bool
) -> List[PassRecord]:
    """Run passes until *seconds* have elapsed.

    A pass starts only while the run would end nearer *seconds* with it
    than without it.  A traced run alternates untraced and traced passes
    (at least one of each): the untraced ones are the base of
    ``trace.overhead_pct``.
    """
    tracer = Tracer() if trace else None
    passes: List[PassRecord] = []
    start = clock()
    while True:
        active = tracer if len(passes) % 2 == 1 else None
        p = PassRecord(len(passes), active)
        begin = clock()
        if active is not None:
            with active:
                workload.run_pass(p)
            p.spans = active.take() + p.spans
        else:
            workload.run_pass(p)
        p.duration = clock() - begin
        passes.append(p)
        minimum = 2 if trace else 1
        if len(passes) < minimum:
            continue
        if smoke:
            return passes
        typical = statistics.median(q.duration for q in passes)
        if clock() - start + typical / 2 > seconds:
            return passes


def median_pass_s(passes: List[PassRecord]) -> float:
    """Median over *passes* of the wall time of their units."""
    return statistics.median(sum(p.times.values()) for p in passes)


def summarize(
    name: str,
    args: argparse.Namespace,
    passes: List[PassRecord],
    final: Dict[str, bool],
) -> Dict[str, Any]:
    """The child's result document (see README.md for every field)."""
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    first = passes[0]
    checks: Dict[str, bool] = {
        "identical per-unit digests across passes": all(
            p.digests == first.digests for p in passes
        ),
        "no failed units": all(p.failed == 0 for p in passes),
    }
    if first.estimates:
        checks["every estimate finite and > 0"] = all(
            math.isfinite(v) and v > 0 for p in passes for v in p.estimates.values()
        )
    for p in passes:
        for key, ok in p.checks.items():
            checks[key] = checks.get(key, True) and ok
    checks.update(final)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics: Dict[str, Dict[str, Any]] = {}
    layers: Dict[str, Dict[str, Any]] = {}
    if not traced:
        # End-to-end metrics come from untraced runs only.  run.py adds
        # setup_s, the median over this set-up and those of other processes.
        metrics = {
            "pass_norm_s": dict(
                summary([sum(p.norm.values()) for p in passes]),
                unit="s",
                wall_s=median_pass_s(passes),
            ),
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        }
        reports = [p.report_norm_s for p in passes if p.report_norm_s is not None]
        if reports:
            metrics["report_norm_s"] = dict(summary(reports), unit="s")
        if any(p.claims for p in passes):
            metrics["claims_per_task"] = {
                "value": sum(p.claims for p in passes) / attempted,
                "unit": "ratio",
            }
        if first.estimates:
            metrics["detailed_ops"] = {"value": first.detailed_ops, "unit": "ops"}
            metrics["ipc_err_pct"] = {
                "value": statistics.fmean(first.err_pcts or [math.nan]),
                "unit": "%",
            }
    else:
        per_pass = [layer_metrics(p.spans, p.window) for p in traced]
        for key in per_pass[0]:
            values = [m[key][0] for m in per_pass]
            layers[key] = {"value": statistics.median(values), "unit": per_pass[0][key][1]}
        overhead = median_pass_s(traced) / median_pass_s(untraced) - 1.0
        layers["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}

    return {
        "workload": name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(traced),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": {k: v for p in passes for k, v in p.errors.items()},
        "digest": digest(first.digests),
        "metrics": metrics,
        "layers": layers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--t0",
        type=float,
        default=_T_IMPORT,
        help="time.monotonic() when the parent started this process",
    )
    parser.add_argument(
        "--gauge0",
        type=float,
        required=True,
        help="the parent's gauge reading just before --t0",
    )
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True, help="empty scratch directory")
    parser.add_argument("--spans", type=Path, help="write the traced passes' spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, bool(args.trace), args.work
    )
    workload.setup()
    setup_s = time.monotonic() - args.t0
    setup = {
        "wall_s": setup_s,
        "norm_s": setup_s * GAUGE_REF_S / ((args.gauge0 + gauge()) / 2),
    }
    if args.setup_only:
        args.result.write_text(json.dumps({"setup": setup}))
        return 0

    passes = measure(workload, args.seconds, bool(args.trace), args.smoke)
    final = workload.final_checks(passes)
    if args.spans is not None:
        args.spans.unlink(missing_ok=True)
        for p in passes:
            if p.traced:
                dump(p.spans, args.spans, workload=args.workload, **{"pass": p.index})
    doc = summarize(args.workload, args, passes, final)
    args.result.write_text(json.dumps(dict(doc, setup=setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
