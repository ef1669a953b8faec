"""Figure 10: threshold effects on 300.twolf's measured phase structure.

For a sweep of thresholds, the online classifier is run over 300.twolf's
BBV stream and four statistics are reported: number of phases, number of
phase changes, average phase-interval length, and within-phase IPC
variation.  The paper: "The number of detected phases quickly drops as the
threshold increases, but the variation in each phase raises quickly."
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..phase.threshold import phase_statistics
from .cells import ExperimentCell, trace_cell
from .fig07_change_distribution import DEFAULT_PERIOD_FACTOR
from .formatting import fmt_ops, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "BENCHMARK", "THRESHOLDS_PI"]

BENCHMARK = "300.twolf"

#: Swept thresholds as fractions of pi (the paper's x-axis reaches pi/2).
THRESHOLDS_PI = (0.0125, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25, 0.3, 0.375, 0.5)


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: the subject benchmark's reference trace."""
    return [trace_cell(BENCHMARK)]


def run(
    ctx: ExperimentContext,
    benchmark: str = BENCHMARK,
    period_factor: int = DEFAULT_PERIOD_FACTOR,
) -> Dict[str, Any]:
    """Sweep thresholds over the benchmark's BBV/IPC series."""
    trace = ctx.trace(benchmark).aggregate(period_factor)
    bbvs = list(trace.normalized_bbvs())
    ipcs = trace.ipcs.tolist()
    ops = trace.ops.tolist()
    points: List[Dict[str, Any]] = []
    for frac in THRESHOLDS_PI:
        stats = phase_statistics(bbvs, ipcs, ops, frac * math.pi)
        points.append(
            {
                "threshold_pi": frac,
                "n_phases": stats.n_phases,
                "n_changes": stats.n_changes,
                "mean_interval_ops": stats.mean_interval_ops,
                "ipc_variation": stats.ipc_variation,
            }
        )
    return {
        "benchmark": benchmark,
        "ipc_sigma": float(trace.ipcs.std(ddof=0)),
        "points": points,
    }


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-10 table: phase statistics per threshold."""
    rows = []
    for entry in result["points"]:
        rows.append(
            [
                f"{entry['threshold_pi']:.3f}pi",
                str(entry["n_phases"]),
                str(entry["n_changes"]),
                fmt_ops(entry["mean_interval_ops"]),
                f"{entry['ipc_variation']:.3f}",
            ]
        )
    header = (
        f"Figure 10 — threshold effects on {result['benchmark']} "
        f"(overall IPC sigma {result['ipc_sigma']:.3f})\n"
        "phases drop and per-phase variation rises as the threshold grows:\n"
    )
    return header + table(
        ["threshold", "phases", "changes", "avg interval", "IPC var (x sigma)"],
        rows,
    )
