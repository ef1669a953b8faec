"""Command-line interface: ``pgss-sim``.

Subcommands::

    pgss-sim list                      # available workloads
    pgss-sim simulate 164.gzip         # full-detail run of one benchmark
    pgss-sim sample 164.gzip -t pgss   # one sampling technique
    pgss-sim figure 12                 # regenerate one paper figure
    pgss-sim jobs submit --queue DIR   # enqueue experiment cells
    pgss-sim worker --queue DIR        # execute queued cells (fleet)
    pgss-sim jobs fetch --queue DIR ID # assemble a finished job's report
    pgss-sim run-all --jobs 4          # submit + wait + fetch in one step
    pgss-sim rates                     # per-mode simulation rates
    pgss-sim clear-cache               # drop cached experiment results

Every experiment-running command is a thin client of
:class:`repro.fleet.QueueService`; ``run-all`` is the compat alias
for ``jobs submit`` + wait + ``jobs fetch`` on the local backend
(or on a shared queue with ``--queue``), and ``figure`` / ``report``
are ``run-all`` with fixed arguments.  All subcommands accept
``--scale {quick,scaled,paper}``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .config import Scale, ScaleConfig
from .program import WORKLOAD_NAMES, get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventBus
    from .fleet import JobState, QueueService

__all__ = ["main", "build_parser"]

_SCALES = {"quick": Scale.QUICK, "scaled": Scale.SCALED, "paper": Scale.PAPER}

def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    from .experiments.report import FIGURE_MODULES

    parser = argparse.ArgumentParser(
        prog="pgss-sim",
        description="Phase-Guided Small-Sample Simulation (ISPASS 2007) reproduction",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="scaled",
        help="interval-scale configuration (default: scaled)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    p_sim = sub.add_parser("simulate", help="full-detail run of one workload")
    p_sim.add_argument("workload", help="workload name, e.g. 164.gzip")

    p_inspect = sub.add_parser(
        "inspect", help="static + dynamic profile of one workload"
    )
    p_inspect.add_argument("workload")

    p_sample = sub.add_parser("sample", help="run one sampling technique")
    p_sample.add_argument("workload")
    p_sample.add_argument(
        "-t",
        "--technique",
        choices=[
            "smarts",
            "turbosmarts",
            "simpoint",
            "online-simpoint",
            "pgss",
            "stratified",
            "ranked",
        ],
        default="pgss",
    )
    p_sample.add_argument(
        "--threshold", type=float, default=0.05, help="BBV threshold (fraction of pi)"
    )
    p_sample.add_argument(
        "--period", type=int, default=None, help="BBV/sampling period in ops"
    )
    p_sample.add_argument(
        "--progress",
        action="store_true",
        help="stream session events (samples, phase changes, estimates) "
        "to stderr while the technique runs",
    )

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    # The paper's numbered figures; "6/7" is accepted as 6 or 7.
    numbers = {n for ids, _ in FIGURE_MODULES for n in ids.split("/") if n.isdigit()}
    p_fig.add_argument("number", choices=sorted(numbers, key=int))

    p_report = sub.add_parser(
        "report", help="regenerate every figure into one report"
    )
    p_report.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )

    p_runall = sub.add_parser(
        "run-all",
        help="run every figure's experiment cells (optionally in "
        "parallel), then assemble the full report",
        description="Compatibility alias for the job-service API: "
        "equivalent to `jobs submit` + wait + `jobs fetch` on the "
        "local backend, or — with --queue — on a shared queue "
        "directory that `pgss-sim worker` processes execute. Results "
        "are byte-identical either way.",
    )
    p_runall.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="local workers draining the job's cells (default: 1 = all "
        "in this process; results are byte-identical for any job count)",
    )
    p_runall.add_argument(
        "--figures",
        default=None,
        help="comma-separated figure ids to run (e.g. '2,11,ext-tradeoff'; "
        "default: all)",
    )
    p_runall.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )
    p_runall.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    p_runall.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="submit to this shared queue directory and wait for fleet "
        "workers to execute the cells (instead of running in-process)",
    )

    p_jobs = sub.add_parser(
        "jobs", help="submit and manage fleet jobs on a shared queue"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    p_submit = jobs_sub.add_parser(
        "submit", help="enqueue the experiment cells of the selected figures"
    )
    p_submit.add_argument("--queue", required=True, metavar="DIR")
    p_submit.add_argument(
        "--figures",
        default=None,
        help="comma-separated figure ids (default: all)",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=50,
        help="0-99, higher is claimed earlier (default: 50)",
    )
    p_submit.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per cell after a failure or lost lease "
        "(default: 1)",
    )

    p_status = jobs_sub.add_parser("status", help="show a job's progress")
    p_status.add_argument("--queue", required=True, metavar="DIR")
    p_status.add_argument(
        "job", nargs="?", default=None, help="job id (default: every job)"
    )

    p_fetch = jobs_sub.add_parser(
        "fetch", help="assemble a finished job's report from the cache"
    )
    p_fetch.add_argument("--queue", required=True, metavar="DIR")
    p_fetch.add_argument("job")
    p_fetch.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )

    p_cancel = jobs_sub.add_parser(
        "cancel", help="cancel a job's still-pending cells"
    )
    p_cancel.add_argument("--queue", required=True, metavar="DIR")
    p_cancel.add_argument("job")

    p_worker = sub.add_parser(
        "worker", help="claim and execute queued cells until stopped"
    )
    p_worker.add_argument("--queue", required=True, metavar="DIR")
    p_worker.add_argument(
        "--drain",
        action="store_true",
        help="exit when the queue is empty instead of waiting for work",
    )
    p_worker.add_argument(
        "--max-cells",
        type=int,
        default=0,
        help="stop after this many cells (default: unlimited)",
    )
    p_worker.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="S",
        help="lease duration in seconds (default: 60; heartbeats refresh "
        "at a third of this)",
    )
    p_worker.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="S",
        help="idle sleep between queue scans (default: 0.5)",
    )
    p_worker.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock budget (default: 600)",
    )
    p_worker.add_argument(
        "--checkpoint-windows",
        type=int,
        default=None,
        metavar="N",
        help="trace windows between mid-cell checkpoints (default: 32)",
    )
    p_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    sub.add_parser("rates", help="measure per-mode simulation rates")
    sub.add_parser(
        "calibrate", help="per-workload IPC/variability calibration table"
    )
    p_clear = sub.add_parser(
        "clear-cache",
        help="delete cached experiment results and sweep queue litter",
    )
    p_clear.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="also sweep this queue directory: reap expired leases, "
        "requeue or fail their tasks, drop orphaned tmp files and "
        "checkpoints",
    )
    p_clear.add_argument(
        "--sweep",
        action="store_true",
        help="only remove crash litter (stale claims, tmp files); keep "
        "cached results",
    )
    return parser


def _cmd_list() -> int:
    for name in WORKLOAD_NAMES:
        print(name)
    print("168.wupwise  (Figure 3 subject)")
    return 0


def _cmd_simulate(scale: ScaleConfig, workload: str) -> int:
    from .sampling import FullDetail

    result = FullDetail().run(get_workload(workload, scale))
    print(
        f"{workload}: IPC {result.ipc_estimate:.4f} over {result.total_ops:,} ops"
    )
    return 0


def _make_progress_bus() -> "EventBus":
    """An event bus whose subscribers narrate the run on stderr."""
    from .events import (
        EstimateUpdated,
        EventBus,
        PhaseChange,
        SampleTaken,
        SegmentEnd,
        SegmentStart,
        ThresholdSelected,
    )

    bus = EventBus()

    # Per-role segment tallies, summarised on the final estimate rather
    # than per segment (a run executes tens of thousands of segments).
    segments_started = [0]
    segment_totals: Dict[str, List[int]] = {}

    def on_segment_start(event: SegmentStart) -> None:
        segments_started[0] += 1

    def on_segment_end(event: SegmentEnd) -> None:
        tally = segment_totals.setdefault(event.role, [0, 0])
        tally[0] += 1
        tally[1] += event.ops

    def on_threshold(event: ThresholdSelected) -> None:
        gate = "" if event.usable else " (fallback)"
        print(
            f"  threshold selected: {event.threshold:.3f}*pi -> "
            f"{event.n_phases} phases, change rate "
            f"{event.change_rate:.3f}{gate}",
            file=sys.stderr,
        )

    def on_sample(event: SampleTaken) -> None:
        print(
            f"  sample #{event.index} @ op {event.op_offset:,}: "
            f"ipc {event.ipc:.3f} ({event.ops} ops / {event.cycles} cycles)",
            file=sys.stderr,
        )

    def on_phase(event: PhaseChange) -> None:
        kind = "new phase" if event.created else "phase change"
        prev = "-" if event.previous_phase_id is None else event.previous_phase_id
        print(
            f"  {kind}: {prev} -> {event.phase_id} "
            f"(distance {event.distance:.3f}, period {event.n_observations})",
            file=sys.stderr,
        )

    def on_estimate(event: EstimateUpdated) -> None:
        tag = "final" if event.final else "running"
        print(
            f"  {tag} estimate [{event.technique}]: ipc {event.ipc:.4f} "
            f"after {event.n_samples} samples",
            file=sys.stderr,
        )
        if event.final and segment_totals:
            mix = ", ".join(
                f"{role}: {n} x {ops:,} ops"
                for role, (n, ops) in sorted(segment_totals.items())
            )
            print(
                f"  segment mix ({segments_started[0]} started): {mix}",
                file=sys.stderr,
            )
            segments_started[0] = 0
            segment_totals.clear()

    bus.subscribe(SegmentStart, on_segment_start)
    bus.subscribe(SegmentEnd, on_segment_end)
    bus.subscribe(SampleTaken, on_sample)
    bus.subscribe(PhaseChange, on_phase)
    bus.subscribe(EstimateUpdated, on_estimate)
    bus.subscribe(ThresholdSelected, on_threshold)
    return bus


def _cmd_sample(
    scale: ScaleConfig,
    workload: str,
    technique: str,
    threshold: float,
    period: Optional[int],
    progress: bool = False,
) -> int:
    from .sampling import (
        OnlineSimPoint,
        OnlineSimPointConfig,
        Pgss,
        PgssConfig,
        RankedSetConfig,
        RankedSetSampling,
        SimPoint,
        SimPointConfig,
        Smarts,
        SmartsConfig,
        TurboSmarts,
        TurboSmartsConfig,
        TwoPhaseStratified,
        TwoPhaseStratifiedConfig,
    )

    program = get_workload(workload, scale)
    if technique == "smarts":
        tech = Smarts(SmartsConfig.from_scale(scale))
    elif technique == "turbosmarts":
        tech = TurboSmarts(TurboSmartsConfig.from_scale(scale))
    elif technique == "simpoint":
        interval = period or scale.simpoint_intervals[-1]
        n_clusters = max(min(10, scale.benchmark_ops // interval - 1), 1)
        tech = SimPoint(SimPointConfig(interval, n_clusters))
    elif technique == "online-simpoint":
        tech = OnlineSimPoint(
            OnlineSimPointConfig(period or scale.simpoint_intervals[-1], threshold)
        )
    elif technique == "stratified":
        overrides = {"interval_ops": period} if period else {}
        tech = TwoPhaseStratified(
            TwoPhaseStratifiedConfig.from_scale(
                scale, threshold_pi=threshold, **overrides
            )
        )
    elif technique == "ranked":
        overrides = {"interval_ops": period} if period else {}
        tech = RankedSetSampling(RankedSetConfig.from_scale(scale, **overrides))
    else:
        tech = Pgss(
            PgssConfig.from_scale(
                scale, bbv_period_ops=period, threshold_pi=threshold
            )
        )
    bus = _make_progress_bus() if progress else None
    result = tech.run(program, bus=bus)
    print(
        f"{result.technique} on {workload}: IPC estimate "
        f"{result.ipc_estimate:.4f}, detailed ops {result.detailed_ops:,}, "
        f"samples {result.n_samples}"
    )
    for key, value in result.extras.items():
        print(f"  {key}: {value}")
    return 0


def _print_failures(state: "JobState") -> None:
    for cell_id, error in sorted(state.failures.items()):
        print(f"cell {cell_id} failed: {error}", file=sys.stderr)
    failed = state.counts.get("failed", 0)
    print(f"job {state.job_id}: {failed}/{state.total} cells failed",
          file=sys.stderr)


def _cmd_inspect(scale: ScaleConfig, workload: str) -> int:
    from .program import dynamic_profile, static_profile

    program = get_workload(workload, scale)
    static = static_profile(program)
    dynamic = dynamic_profile(program)
    print(f"{workload} (scale {scale.name})")
    print(f"  blocks: {static.n_blocks} ({static.n_instructions} static "
          f"instructions over {static.text_span_bytes:,} B of text)")
    print(f"  behaviours: {static.n_behaviors}, script segments: "
          f"{static.n_segments}")
    print(f"  data footprint: {static.mem_footprint_bytes / 1024:,.0f} KB "
          f"across patterns {static.pattern_mix}")
    mix = ", ".join(f"{k}:{v}" for k, v in sorted(static.op_mix.items()))
    print(f"  static op mix: {mix}")
    print(f"  dynamic: {dynamic.total_ops:,} ops in {dynamic.total_events:,} "
          f"block executions (mean {dynamic.mean_block_ops:.1f} ops/block, "
          f"{dynamic.taken_fraction:.1%} branches taken)")
    share = {
        name: f"{ops / sum(dynamic.behavior_ops.values()):.1%}"
        for name, ops in sorted(dynamic.behavior_ops.items())
    }
    print(f"  behaviour occupancy: {share}")
    return 0


def _write_report(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {output}")
    else:
        print(text)


def _cmd_run_all(
    scale: ScaleConfig,
    jobs: int,
    figures: Optional[str],
    output: Optional[str],
    quiet: bool,
    queue: Optional[str],
) -> int:
    from .errors import OrchestrationError
    from .experiments import ExperimentContext

    ctx = ExperimentContext(scale)
    try:
        if queue:
            from .fleet import QueueService

            service: "QueueService" = QueueService(ctx, Path(queue))
        else:
            from .fleet import LocalService

            progress = (
                None
                if quiet
                else lambda line: print(line, file=sys.stderr, flush=True)
            )
            service = LocalService(ctx, jobs=jobs, progress=progress)
        handle = service.submit(figures=figures)
        if queue:
            print(
                f"job {handle.job_id} submitted to {queue}; waiting for "
                "fleet workers (start them with: pgss-sim worker "
                f"--queue {queue})",
                file=sys.stderr,
            )
        state = service.wait(handle)
        if state.state != "done":
            _print_failures(state)
            return 1
        text = service.fetch(handle)
        # The cells ran on worker contexts; their counters come back in
        # the done records, the report assembly's are this context's.
        stats = ctx.cache.stats()
        for record in service.queue.outcomes(handle.job_id):
            for key, count in record.get("cache", {}).items():
                stats[key] = stats.get(key, 0) + int(count)
    except OrchestrationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _write_report(text, output)
    print(
        f"cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['races']} races, {stats['corrupt']} corrupt entries",
        file=sys.stderr,
    )
    return 0


def _cmd_rates(scale: ScaleConfig) -> int:
    from .experiments import ExperimentContext
    from .experiments.fig13_simulation_time import measure_rates

    rates = measure_rates(ExperimentContext(scale))
    for key, value in rates.items():
        print(f"{key:18s} {value / 1e3:10,.0f} kops/s")
    return 0


def _cmd_calibrate(scale: ScaleConfig) -> int:
    from .program import WORKLOAD_NAMES
    from .sampling import collect_reference_trace

    print(f"{'workload':14} {'IPC':>7} {'sigma':>7} {'cv':>6} "
          f"{'min':>6} {'max':>6}")
    for name in list(WORKLOAD_NAMES) + ["168.wupwise"]:
        trace = collect_reference_trace(get_workload(name, scale), scale.trace_window)
        ipcs = trace.ipcs
        print(f"{name:14} {trace.true_ipc:>7.3f} {float(ipcs.std()):>7.3f} "
              f"{float(ipcs.std() / ipcs.mean()):>6.2f} "
              f"{float(ipcs.min()):>6.2f} {float(ipcs.max()):>6.2f}")
    return 0


def _cmd_clear_cache(queue: Optional[str], sweep_only: bool) -> int:
    from .experiments import ResultCache

    cache = ResultCache()
    if sweep_only:
        swept = cache.sweep()
        print(
            f"swept cache: {swept['stale_claims']} stale claims, "
            f"{swept['tmp_files']} tmp files removed"
        )
    else:
        removed = cache.clear()
        print(f"removed {removed} cached files")
    if queue:
        from .fleet import JobQueue

        report = JobQueue(Path(queue)).sweep()
        print(
            f"swept queue {queue}: {report.stale_leases} stale leases "
            f"reclaimed ({report.requeued} tasks requeued, "
            f"{report.failed} failed out of retries), "
            f"{report.orphan_files} orphan files, "
            f"{report.orphan_checkpoints} orphan checkpoint dirs removed"
        )
    return 0


def _cmd_jobs(args: argparse.Namespace, scale: ScaleConfig) -> int:
    from .errors import OrchestrationError
    from .experiments import ExperimentContext
    from .fleet import JobQueue, QueueService

    queue_dir = Path(args.queue)
    try:
        if args.jobs_command == "submit":
            service = QueueService(
                ExperimentContext(scale),
                queue_dir,
                priority=args.priority,
                retries=args.retries,
            )
            handle = service.submit(figures=args.figures)
            total = service.status(handle).total
            print(handle.job_id)
            print(
                f"{total} cells queued in {queue_dir}; execute with: "
                f"pgss-sim worker --queue {queue_dir}",
                file=sys.stderr,
            )
            return 0
        if args.jobs_command == "status":
            queue = JobQueue(queue_dir)
            job_ids = [args.job] if args.job else queue.jobs()
            if not job_ids:
                print(f"no jobs in {queue_dir}")
                return 0
            for job_id in job_ids:
                state = queue.status(job_id)
                counts = ", ".join(
                    f"{k}: {v}" for k, v in sorted(state.counts.items()) if v
                )
                print(f"{state.job_id}  {state.state}  [{counts or 'empty'}]")
                for cell_id, error in sorted(state.failures.items()):
                    print(f"  {cell_id}: {error}")
                    if cell_id in state.logs:
                        print(f"    log: {state.logs[cell_id]}")
                if state.logs:
                    print(
                        f"  logs: {len(state.logs)} task log(s) under "
                        f"{queue.root / 'logs'}"
                    )
            return 0
        if args.jobs_command == "fetch":
            service = QueueService.from_queue(queue_dir, args.job)
            text = service.fetch(args.job)
            _write_report(text, args.output)
            return 0
        if args.jobs_command == "cancel":
            cancelled = QueueService.from_queue(queue_dir, args.job).cancel(
                args.job
            )
            print(
                f"job {args.job} "
                + ("cancelled" if cancelled else "already finished or cancelled")
            )
            return 0
    except OrchestrationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    from .errors import OrchestrationError
    from .fleet import (
        DEFAULT_CHECKPOINT_WINDOWS,
        DEFAULT_LEASE_S,
        DEFAULT_POLL_S,
        run_worker,
    )
    from .experiments.parallel import DEFAULT_TIMEOUT_S

    progress = (
        None
        if args.quiet
        else lambda line: print(line, file=sys.stderr, flush=True)
    )
    try:
        executed = run_worker(
            Path(args.queue),
            lease_s=args.lease if args.lease is not None else DEFAULT_LEASE_S,
            timeout_s=(
                args.timeout if args.timeout is not None else DEFAULT_TIMEOUT_S
            ),
            poll_s=args.poll if args.poll is not None else DEFAULT_POLL_S,
            drain=args.drain,
            max_cells=args.max_cells,
            checkpoint_windows=(
                args.checkpoint_windows
                if args.checkpoint_windows is not None
                else DEFAULT_CHECKPOINT_WINDOWS
            ),
            progress=progress,
        )
    except OrchestrationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print(f"worker executed {executed} cells", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    scale = _SCALES[args.scale]
    if args.command == "list":
        return _cmd_list()
    if args.command == "simulate":
        return _cmd_simulate(scale, args.workload)
    if args.command == "inspect":
        return _cmd_inspect(scale, args.workload)
    if args.command == "sample":
        return _cmd_sample(
            scale,
            args.workload,
            args.technique,
            args.threshold,
            args.period,
            progress=args.progress,
        )
    if args.command == "figure":
        return _cmd_run_all(scale, 1, args.number, None, True, None)
    if args.command == "report":
        return _cmd_run_all(scale, 1, None, args.output, True, None)
    if args.command == "run-all":
        return _cmd_run_all(
            scale, args.jobs, args.figures, args.output, args.quiet, args.queue
        )
    if args.command == "jobs":
        return _cmd_jobs(args, scale)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "rates":
        return _cmd_rates(scale)
    if args.command == "calibrate":
        return _cmd_calibrate(scale)
    if args.command == "clear-cache":
        return _cmd_clear_cache(args.queue, args.sweep)
    return 2


if __name__ == "__main__":
    sys.exit(main())
