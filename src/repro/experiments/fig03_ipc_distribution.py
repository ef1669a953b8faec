"""Figure 3: IPC over time and its distribution for the wupwise analogue.

The paper shows a Pentium-4 execution of 168.wupwise whose IPC oscillates
between well-separated levels, so the cycle-weighted IPC distribution is
"clearly ... non-Gaussian" — the assumption SMARTS' confidence analysis
rests on.  This experiment reproduces both panels on the simulated
analogue and quantifies polymodality with Sarle's bimodality coefficient
and a smoothed-histogram mode count.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..stats.distributions import bimodality_coefficient, histogram, modality_peaks
from .cells import ExperimentCell, trace_cell
from .formatting import table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "BENCHMARK", "GAUSSIAN_BC", "UNIFORM_BC"]

BENCHMARK = "168.wupwise"

#: Sarle's coefficient reference points: a Gaussian scores ~1/3, a uniform
#: distribution ~0.555; values above the uniform suggest polymodality.
GAUSSIAN_BC = 1.0 / 3.0
UNIFORM_BC = 0.555


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: the subject benchmark's reference trace."""
    return [trace_cell(BENCHMARK)]


def run(ctx: ExperimentContext, benchmark: str = BENCHMARK, bins: int = 28) -> Dict[str, Any]:
    """Compute the IPC time series and its cycle-weighted distribution."""
    trace = ctx.trace(benchmark)
    ipcs = trace.ipcs
    cycles = trace.cycles.astype(np.float64)
    edges, counts = histogram(ipcs, bins=bins, weights=cycles)
    peaks = modality_peaks(ipcs, bins=bins, weights=cycles)
    return {
        "benchmark": benchmark,
        "true_ipc": trace.true_ipc,
        "time_cycles": np.cumsum(trace.cycles).tolist(),
        "ipcs": ipcs.tolist(),
        "hist_edges": edges.tolist(),
        "hist_cycles": counts.tolist(),
        "bimodality_coefficient": bimodality_coefficient(ipcs),
        "modes": peaks,
        "ipc_std": float(ipcs.std(ddof=0)),
    }


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-3 summary: distribution shape evidence."""
    edges = result["hist_edges"]
    counts = result["hist_cycles"]
    total = sum(counts) or 1.0
    rows = []
    for i in range(len(counts)):
        share = counts[i] / total
        if share < 0.005:
            continue
        bar = "#" * max(int(round(share * 60)), 1)
        rows.append([f"{edges[i]:.2f}-{edges[i + 1]:.2f}", f"{100 * share:.1f}%", bar])
    bc = result["bimodality_coefficient"]
    header = (
        f"Figure 3 — IPC distribution, {result['benchmark']} "
        f"(mean IPC {result['true_ipc']:.3f}, sigma {result['ipc_std']:.3f})\n"
        f"modes at {[round(m, 2) for m in result['modes']]}; "
        f"bimodality coefficient {bc:.3f} "
        f"(Gaussian ~{GAUSSIAN_BC:.2f}, >{UNIFORM_BC:.3f} = polymodal)\n"
        "Cycle-weighted IPC histogram:\n"
    )
    return header + table(["IPC bin", "cycles", ""], rows)
