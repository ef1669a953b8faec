"""Figure 8: fraction of significant IPC changes caught vs BBV threshold.

One curve per IPC-significance level (.1 to .5 sigma).  The paper: "As
expected, there is a knee in the curve around .05 pi radians.  Performance
is better for larger IPC changes."  Benchmarks are weighted equally (the
per-benchmark detection rates are averaged).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from ..phase.threshold import detection_rate
from .cells import ExperimentCell, trace_cell
from .fig07_change_distribution import DEFAULT_PERIOD_FACTOR, change_pairs_per_benchmark
from .formatting import table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "THRESHOLDS_PI", "SIGMA_LEVELS"]

#: Swept thresholds, as fractions of pi (the paper's x-axis spans 0-0.5).
THRESHOLDS_PI = tuple(round(0.01 * i, 2) for i in range(0, 51, 2))

#: IPC-significance levels in sigma units (the paper's five curves).
SIGMA_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5)


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: every benchmark's reference trace."""
    return [trace_cell(name) for name in ctx.benchmarks]


def run(
    ctx: ExperimentContext, period_factor: int = DEFAULT_PERIOD_FACTOR
) -> Dict[str, Any]:
    """Compute the equally-weighted detection-rate curves."""
    per_benchmark = change_pairs_per_benchmark(ctx, period_factor)
    curves: Dict[str, List[float]] = {}
    for sigma in SIGMA_LEVELS:
        rates = []
        for th in THRESHOLDS_PI:
            per_bench = [
                detection_rate(pairs, th * math.pi, sigma)
                for pairs in per_benchmark.values()
                if pairs
            ]
            rates.append(float(np.mean(per_bench)))
        curves[f"{sigma:.1f}"] = rates
    # Knee: the largest threshold at which the .3-sigma curve still
    # retains at least 90% of its zero-threshold value.
    base = curves["0.3"][1] if len(curves["0.3"]) > 1 else 1.0
    knee = THRESHOLDS_PI[0]
    for th, rate in zip(THRESHOLDS_PI, curves["0.3"]):
        if th > 0 and rate >= 0.9 * base:
            knee = th
    return {
        "thresholds_pi": list(THRESHOLDS_PI),
        "curves": curves,
        "knee_pi": knee,
    }


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-8 table: % of changes caught per threshold and sigma level."""
    rows = []
    for i, th in enumerate(result["thresholds_pi"]):
        if th not in (0.0, 0.02, 0.04, 0.06, 0.1, 0.2, 0.3, 0.4, 0.5):
            continue
        row = [f"{th:.2f}pi"]
        for sigma in SIGMA_LEVELS:
            row.append(f"{100 * result['curves'][f'{sigma:.1f}'][i]:5.1f}%")
        rows.append(row)
    header = (
        "Figure 8 — significant-IPC-change detection rate vs threshold\n"
        f"(knee of the .3-sigma curve at ~{result['knee_pi']:.2f}pi; "
        "the paper reports ~.05pi)\n"
    )
    return header + table(
        ["threshold"] + [f">{s:.1f}s" for s in SIGMA_LEVELS], rows
    )
