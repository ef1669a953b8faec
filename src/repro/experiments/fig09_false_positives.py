"""Figure 9: fraction of detected phase changes that are false positives.

"False positives are detrimental because they cause excess samples to be
taken by creating a new phase where there is no difference in performance.
False positives should be minimized by setting the threshold as high as
possible, but not at the expense of missing important performance
changes."  The false-positive share falls as the threshold rises.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from ..phase.threshold import false_positive_rate
from .cells import ExperimentCell, trace_cell
from .fig07_change_distribution import DEFAULT_PERIOD_FACTOR, change_pairs_per_benchmark
from .fig08_detection_rate import SIGMA_LEVELS, THRESHOLDS_PI
from .formatting import table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells"]


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: every benchmark's reference trace."""
    return [trace_cell(name) for name in ctx.benchmarks]


def run(
    ctx: ExperimentContext, period_factor: int = DEFAULT_PERIOD_FACTOR
) -> Dict[str, Any]:
    """Compute the equally-weighted false-positive curves."""
    per_benchmark = change_pairs_per_benchmark(ctx, period_factor)
    curves: Dict[str, List[float]] = {}
    for sigma in SIGMA_LEVELS:
        rates = []
        for th in THRESHOLDS_PI:
            per_bench = [
                false_positive_rate(pairs, th * math.pi, sigma)
                for pairs in per_benchmark.values()
                if pairs
            ]
            rates.append(float(np.mean(per_bench)))
        curves[f"{sigma:.1f}"] = rates
    return {"thresholds_pi": list(THRESHOLDS_PI), "curves": curves}


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-9 table: false-positive share per threshold and sigma level."""
    rows = []
    for i, th in enumerate(result["thresholds_pi"]):
        if th not in (0.0, 0.02, 0.04, 0.06, 0.1, 0.2, 0.3, 0.4, 0.5):
            continue
        row = [f"{th:.2f}pi"]
        for sigma in SIGMA_LEVELS:
            row.append(f"{100 * result['curves'][f'{sigma:.1f}'][i]:5.1f}%")
        rows.append(row)
    header = (
        "Figure 9 — false-positive share of detected phase changes vs "
        "threshold\n(falls as the threshold rises; rises with the "
        "IPC-significance bar)\n"
    )
    return header + table(
        ["threshold"] + [f">{s:.1f}s" for s in SIGMA_LEVELS], rows
    )
