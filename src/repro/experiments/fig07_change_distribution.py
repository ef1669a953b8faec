"""Figures 6 and 7: the (BBV change, IPC change) joint distribution.

For every pair of consecutive BBV sampling periods across all ten
benchmarks, the BBV change (angle) is paired with the IPC change in units
of that benchmark's IPC standard deviation ("so that samples can be
meaningfully compared against data from other benchmarks"; "all benchmarks
are weighted equally").

Figure 7 is the 2-D distribution; Figure 6's four-region taxonomy is
evaluated quantitatively for a reference threshold pair.  The paper's
reading of its Fig. 7: "BBV changes greater than approximately .05 pi
radians typically correspond to a large change in IPC".
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from ..phase.threshold import ChangePair, consecutive_changes, region_counts
from .cells import ExperimentCell, trace_cell
from .formatting import table
from .runner import ExperimentContext

__all__ = [
    "run",
    "format_result",
    "cells",
    "change_pairs_per_benchmark",
    "DEFAULT_PERIOD_FACTOR",
]

#: The analysis period as a multiple of the trace window (the paper uses
#: its finest Fig.-11 period, 100k; scaled here to 4 windows = 20k).
DEFAULT_PERIOD_FACTOR = 4

#: Reference thresholds for the Fig. 6 region accounting.
REFERENCE_BBV_THRESHOLD_PI = 0.05
REFERENCE_IPC_SIGMA = 0.3


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: every benchmark's reference trace."""
    return [trace_cell(name) for name in ctx.benchmarks]


def change_pairs_per_benchmark(
    ctx: ExperimentContext, period_factor: int = DEFAULT_PERIOD_FACTOR
) -> Dict[str, List[ChangePair]]:
    """Consecutive-period change pairs for every benchmark in the context."""
    pairs: Dict[str, List[ChangePair]] = {}
    for name in ctx.benchmarks:
        trace = ctx.trace(name).aggregate(period_factor)
        bbvs = list(trace.normalized_bbvs())
        pairs[name] = consecutive_changes(bbvs, trace.ipcs.tolist())
    return pairs


def run(
    ctx: ExperimentContext,
    period_factor: int = DEFAULT_PERIOD_FACTOR,
    angle_bins: int = 25,
    sigma_bins: int = 20,
) -> Dict[str, Any]:
    """Compute the equally-weighted 2-D histogram and region counts."""
    per_benchmark = change_pairs_per_benchmark(ctx, period_factor)

    # Equal benchmark weighting: average the per-benchmark percentage
    # histograms rather than pooling raw counts.
    hist_sum = np.zeros((angle_bins, sigma_bins))
    angle_edges = sigma_edges = None
    max_angle_pi, max_sigma = 0.5, 1.0
    for pairs in per_benchmark.values():
        angles = np.array([min(p.bbv_angle / math.pi, max_angle_pi) for p in pairs])
        sigmas = np.array([min(p.ipc_sigma, max_sigma) for p in pairs])
        hist, angle_edges, sigma_edges = np.histogram2d(
            angles,
            sigmas,
            bins=(angle_bins, sigma_bins),
            range=((0.0, max_angle_pi), (0.0, max_sigma)),
        )
        if hist.sum():
            hist_sum += 100.0 * hist / hist.sum()
    percent = hist_sum / len(per_benchmark)

    regions = {1: 0, 2: 0, 3: 0, 4: 0}
    for pairs in per_benchmark.values():
        counts = region_counts(
            pairs,
            REFERENCE_BBV_THRESHOLD_PI * math.pi,
            REFERENCE_IPC_SIGMA,
        )
        for region in regions:
            regions[region] += counts[region]

    # The paper's headline observation: what fraction of large IPC changes
    # (> .3 sigma) coincide with BBV changes above .05 pi.
    hits, misses = regions[2], regions[1]
    return {
        "period_factor": period_factor,
        "angle_edges_pi": angle_edges.tolist(),
        "sigma_edges": sigma_edges.tolist(),
        "percent": percent.tolist(),
        "regions": {str(k): v for k, v in regions.items()},
        "n_pairs": sum(len(p) for p in per_benchmark.values()),
        "big_change_detection": hits / (hits + misses) if hits + misses else 1.0,
    }


def format_result(result: Dict[str, Any]) -> str:
    """Fig. 6/7 summary: region table and coarse 2-D density."""
    regions = result["regions"]
    rows = [
        ["1 (IPC change missed)", str(regions["1"])],
        ["2 (IPC change detected)", str(regions["2"])],
        ["3 (no change, no detect)", str(regions["3"])],
        ["4 (false positive)", str(regions["4"])],
    ]
    header = (
        f"Figure 6/7 — change distribution over {result['n_pairs']} "
        f"consecutive-period pairs (threshold .05pi, significance .3 sigma)\n"
        f">{REFERENCE_IPC_SIGMA} sigma IPC changes detected: "
        f"{100 * result['big_change_detection']:.1f}%\n"
    )
    # Compact density: marginal over 5 angle bands x 4 sigma bands.
    percent = np.array(result["percent"])
    bands = []
    a_step = percent.shape[0] // 5
    s_step = percent.shape[1] // 4
    for ai in range(5):
        row = [f"{ai * 0.1:.1f}-{(ai + 1) * 0.1:.1f}pi"]
        for si in range(4):
            block = percent[
                ai * a_step : (ai + 1) * a_step, si * s_step : (si + 1) * s_step
            ]
            row.append(f"{block.sum():5.1f}%")
        bands.append(row)
    density = table(
        ["BBV change", "<.25s", ".25-.5s", ".5-.75s", ">.75s"], bands
    )
    return header + table(["Fig. 6 region", "pairs"], rows) + "\n\n" + density
