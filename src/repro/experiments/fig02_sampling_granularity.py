"""Figure 2: IPC vs completed ops for 164.gzip at four sampling periods.

The paper's point: 164.gzip shows "periods of wild variations in IPC at
very small measurement periods" that are "averaged out, and therefore
invisible when the sampling period is large".  Quantitatively, the
standard deviation of the per-period IPC series shrinks as the period
grows; the series themselves are returned for plotting.

Periods scale the paper's 100k/1M/10M/100M ladder by the configured trace
window (each period is a power-of-five multiple of it, spanning three
orders of magnitude as in the paper).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from .cells import ExperimentCell, trace_cell
from .formatting import fmt_ops, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "BENCHMARK"]

BENCHMARK = "164.gzip"

#: Multiples of the trace window forming the period ladder (1x .. 125x,
#: mirroring the paper's 100k .. 100M three-decade sweep).
PERIOD_FACTORS = (1, 5, 25, 125)


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: the subject benchmark's reference trace."""
    return [trace_cell(BENCHMARK)]


def run(ctx: ExperimentContext, benchmark: str = BENCHMARK) -> Dict[str, Any]:
    """Compute the per-period IPC series and their dispersion."""
    trace = ctx.trace(benchmark)
    result: Dict[str, Any] = {
        "benchmark": benchmark,
        "true_ipc": trace.true_ipc,
        "series": [],
    }
    for factor in PERIOD_FACTORS:
        agg = trace.aggregate(factor)
        ipcs = agg.ipcs
        offsets = np.cumsum(agg.ops).tolist()
        result["series"].append(
            {
                "period_ops": agg.window_ops_target,
                "offsets": offsets,
                "ipcs": ipcs.tolist(),
                "std": float(ipcs.std(ddof=0)),
                "min": float(ipcs.min()),
                "max": float(ipcs.max()),
            }
        )
    return result


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-2 summary: per-period IPC dispersion (shrinks with period)."""
    rows: List[List[str]] = []
    for series in result["series"]:
        rows.append(
            [
                fmt_ops(series["period_ops"]),
                str(len(series["ipcs"])),
                f"{series['std']:.4f}",
                f"{series['min']:.3f}",
                f"{series['max']:.3f}",
            ]
        )
    header = (
        f"Figure 2 — IPC vs completed ops, {result['benchmark']} "
        f"(true IPC {result['true_ipc']:.3f})\n"
        "Fine-grained variation averages out as the sampling period grows:\n"
    )
    return header + table(
        ["period", "points", "IPC std", "min", "max"], rows
    )
