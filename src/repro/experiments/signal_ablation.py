"""Extension experiment: phase-signal ablation on BBV-adversarial workloads.

BBVs are a control-flow projection, so a workload whose phases execute
byte-identical code over different data is invisible to them.  The
:data:`~repro.program.ADVERSARIAL_NAMES` workloads are built exactly that
way (twin blocks sharing addresses and instructions, differing only in
memory patterns); this experiment runs the online classifier and the full
PGSS loop over them with each phase signal (``bbv`` / ``mav`` /
``concat``) and reports

* **detection** — the fraction of ground-truth phase boundaries each
  signal's classifier flags (plus its false-positive count), and
* **accuracy** — each signal's PGSS IPC error against the cached
  reference trace.

The expected shape: the BBV detects (almost) nothing on these subjects
and its per-phase CIs converge on a blended population, while the MAV
and the concatenated signal see every boundary and cut the IPC error.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..cpu import Mode, SimulationEngine
from ..phase import OnlinePhaseClassifier
from ..program import ADVERSARIAL_NAMES
from ..sampling.pgss import Pgss, PgssConfig
from ..sampling.session import (
    ModeSegment,
    SamplingSession,
    SegmentPlan,
    SegmentRole,
)
from ..signals import PHASE_SIGNALS, make_signal_tracker
from .cells import ExperimentCell, trace_cell
from .formatting import fmt_ops, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_cell", "THRESHOLD_PI"]

#: Classifier threshold (fraction of pi) shared by every signal — the
#: paper's canonical 0.05, so signals differ only in what they measure.
THRESHOLD_PI = 0.05


def _pgss_run(
    ctx: ExperimentContext, benchmark: str, signal: str
) -> Dict[str, Any]:
    """One cached PGSS run of *benchmark* driven by *signal*."""
    cfg = PgssConfig.from_scale(
        ctx.scale, threshold_pi=THRESHOLD_PI, phase_signal=signal
    )
    return ctx.run_cached(
        benchmark,
        Pgss(cfg, ctx.machine),
        {
            "period": cfg.bbv_period_ops,
            "threshold": cfg.threshold_pi,
            "signal": signal,
        },
    )


def _detection_stats(
    ctx: ExperimentContext, benchmark: str, signal: str
) -> Dict[str, Any]:
    """Cached classifier-vs-ground-truth bookkeeping for one
    (workload, signal); see :func:`_detect`."""
    payload = {
        "kind": "signal_detection",
        "benchmark": benchmark,
        "signal": signal,
        "threshold": THRESHOLD_PI,
        "period": ctx.scale.pgss_best_period,
        "scale": ctx.scale.name,
        "ops": ctx.scale.benchmark_ops,
        "machine": ctx._machine_key(),
    }
    return ctx.cache.json(payload, lambda: _detect(ctx, benchmark, signal))


def _detect(
    ctx: ExperimentContext, benchmark: str, signal: str
) -> Dict[str, Any]:
    """Classifier-vs-ground-truth bookkeeping for one (workload, signal).

    A FUNC_WARM profile pass classifies every signal period; a
    ground-truth boundary (the behaviour label changed between
    consecutive periods) counts as detected when the classifier flags a
    change in the boundary period or the one after it (a boundary can
    land anywhere inside a period).  Flags away from any boundary are
    false positives.
    """
    program = ctx.program(benchmark)
    tracker = make_signal_tracker(signal)
    engine = SimulationEngine(
        program, machine=ctx.machine, signal_tracker=tracker
    )
    classifier = OnlinePhaseClassifier(THRESHOLD_PI * math.pi)
    period = ctx.scale.pgss_best_period
    flags: List[bool] = []
    labels: List[str] = []

    def plan() -> SegmentPlan:
        while not engine.exhausted:
            outcome = yield ModeSegment(
                Mode.FUNC_WARM, period, role=SegmentRole.PROFILE
            )
            if outcome.run.ops == 0:
                break
            decision = classifier.observe(
                tracker.take_vector(normalize=True), outcome.run.ops
            )
            flags.append(decision.changed or decision.created)
            labels.append(engine.stream.current_behavior_name)

    SamplingSession(engine).execute(plan())
    boundaries = [
        i for i in range(1, len(labels)) if labels[i] != labels[i - 1]
    ]
    detected = sum(
        1
        for i in boundaries
        if flags[i] or (i + 1 < len(flags) and flags[i + 1])
    )
    near = {j for i in boundaries for j in (i, i + 1)}
    # Period 0 always "creates" the founding phase; it is neither a hit
    # nor a false positive.
    false_positives = sum(
        1 for i, flag in enumerate(flags) if flag and i > 0 and i not in near
    )
    return {
        "periods": len(flags),
        "boundaries": len(boundaries),
        "detected": detected,
        "rate": detected / len(boundaries) if boundaries else 1.0,
        "false_positives": false_positives,
        "n_phases": classifier.n_phases,
    }


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One cell per (adversarial workload, signal), plus their traces."""
    out = [trace_cell(name) for name in ADVERSARIAL_NAMES]
    for benchmark in ADVERSARIAL_NAMES:
        for signal in PHASE_SIGNALS:
            out.append(
                ExperimentCell.make(
                    "signal_ablation", benchmark, signal=signal
                )
            )
    return out


def run_cell(
    ctx: ExperimentContext, benchmark: str, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Service entry: one per-signal PGSS run and detection pass, cached."""
    _detection_stats(ctx, benchmark, params["signal"])
    return _pgss_run(ctx, benchmark, params["signal"])


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Detection rate and PGSS error per signal on adversarial subjects."""
    detection: Dict[str, Dict[str, Any]] = {}
    pgss: Dict[str, Dict[str, Any]] = {}
    for benchmark in ADVERSARIAL_NAMES:
        true_ipc = ctx.true_ipc(benchmark)
        detection[benchmark] = {}
        pgss[benchmark] = {}
        for signal in PHASE_SIGNALS:
            detection[benchmark][signal] = _detection_stats(
                ctx, benchmark, signal
            )
            res = _pgss_run(ctx, benchmark, signal)
            pgss[benchmark][signal] = {
                "ipc_estimate": res["ipc_estimate"],
                "error_pct": 100.0
                * abs(res["ipc_estimate"] - true_ipc)
                / true_ipc,
                "detailed_ops": res["detailed_ops"],
                "n_phases": res["extras"]["n_phases"],
            }
    # The acceptance claim: workloads where a memory-aware signal both
    # detects boundaries the BBV misses and lands a lower IPC error.
    mav_wins = [
        benchmark
        for benchmark in ADVERSARIAL_NAMES
        if any(
            detection[benchmark][s]["rate"]
            > detection[benchmark]["bbv"]["rate"]
            and pgss[benchmark][s]["error_pct"]
            < pgss[benchmark]["bbv"]["error_pct"]
            for s in ("mav", "concat")
        )
    ]
    return {
        "workloads": list(ADVERSARIAL_NAMES),
        "signals": list(PHASE_SIGNALS),
        "threshold_pi": THRESHOLD_PI,
        "detection": detection,
        "pgss": pgss,
        "mav_wins": mav_wins,
    }


def format_result(result: Dict[str, Any]) -> str:
    """Detection and error table, one row per (workload, signal)."""
    rows = []
    for benchmark in result["workloads"]:
        for signal in result["signals"]:
            det = result["detection"][benchmark][signal]
            acc = result["pgss"][benchmark][signal]
            rows.append(
                [
                    benchmark,
                    signal,
                    f"{det['detected']}/{det['boundaries']}",
                    f"{100 * det['rate']:5.1f}%",
                    f"{det['false_positives']}",
                    f"{acc['n_phases']}",
                    f"{acc['error_pct']:6.2f}%",
                    fmt_ops(acc["detailed_ops"]),
                ]
            )
    wins = ", ".join(result["mav_wins"]) or "none"
    header = (
        "Extension — phase-signal ablation on BBV-adversarial workloads\n"
        f"(threshold {result['threshold_pi']:.2f}pi; memory-aware signal "
        f"beats BBV on: {wins})\n"
    )
    return header + table(
        [
            "workload",
            "signal",
            "caught",
            "rate",
            "false+",
            "phases",
            "ipc err",
            "detail",
        ],
        rows,
    )
