"""Figure 11: PGSS sampling error across BBV periods and thresholds.

Every benchmark is run under PGSS-Sim for each (BBV sampling period,
threshold) combination — three periods by five thresholds, as in the
paper.  Reported per configuration: per-benchmark percent error plus
A-Mean and G-Mean.  The paper's findings this sweep should reproduce:

* each benchmark performs best with a different parameter set;
* a mid-length period with a tight threshold is the best overall
  configuration (the paper: 1M ops at .05 pi);
* the micro-phased, low-IPC benchmarks (179.art, 181.mcf) perform very
  poorly at the shortest period and improve at longer ones.

Each (sweep point, benchmark) run is a technique cell
(:func:`~repro.experiments.cells.technique_cell`); ``_pgss`` builds the
sweep point's technique for both ``cells()`` and ``run()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..sampling.pgss import Pgss, PgssConfig
from ..stats.errors_metrics import arithmetic_mean, geometric_mean
from .cells import ExperimentCell, technique_cell, trace_cell
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_single", "best_configs"]


def _pgss(ctx: ExperimentContext, period: int, threshold_pi: float) -> Pgss:
    """The PGSS run of one (period, threshold) sweep point."""
    config = PgssConfig.from_scale(
        ctx.scale, bbv_period_ops=period, threshold_pi=threshold_pi
    )
    return Pgss(config, machine=ctx.machine)


def _grid(ctx: ExperimentContext) -> List[Tuple[int, float]]:
    """Every (period, threshold) sweep point, in table order."""
    return [
        (period, threshold)
        for period in ctx.scale.pgss_periods
        for threshold in ctx.scale.thresholds
    ]


def run_single(
    ctx: ExperimentContext, benchmark: str, period: int, threshold_pi: float
) -> Dict[str, Any]:
    """One cached PGSS run; returns the cached result dict plus error."""
    result = dict(ctx.run_cached(benchmark, _pgss(ctx, period, threshold_pi)))
    true_ipc = ctx.true_ipc(benchmark)
    result["error_pct"] = 100.0 * abs(result["ipc_estimate"] - true_ipc) / true_ipc
    return result


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One technique cell per (period, threshold, benchmark) sweep point."""
    out = [trace_cell(name) for name in ctx.benchmarks]
    for period, threshold in _grid(ctx):
        technique = _pgss(ctx, period, threshold)
        out.extend(technique_cell(b, technique) for b in ctx.benchmarks)
    return out


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """The full period x threshold sweep over the benchmark suite."""
    grid: List[Dict[str, Any]] = []
    for period, threshold in _grid(ctx):
        errors: Dict[str, float] = {}
        details: Dict[str, int] = {}
        accounting: Dict[str, Dict[str, int]] = {}
        for benchmark in ctx.benchmarks:
            res = run_single(ctx, benchmark, period, threshold)
            errors[benchmark] = res["error_pct"]
            details[benchmark] = res["detailed_ops"]
            accounting[benchmark] = res["accounting_ops"]
        values = list(errors.values())
        grid.append(
            {
                "period": period,
                "threshold_pi": threshold,
                "errors": errors,
                "detailed_ops": details,
                "accounting_ops": accounting,
                "a_mean": arithmetic_mean(values),
                "g_mean": geometric_mean(values),
            }
        )
    best_overall = min(grid, key=lambda g: g["a_mean"])
    per_benchmark_best: Dict[str, Dict[str, Any]] = {}
    for benchmark in ctx.benchmarks:
        best = min(grid, key=lambda g: g["errors"][benchmark])
        per_benchmark_best[benchmark] = {
            "period": best["period"],
            "threshold_pi": best["threshold_pi"],
            "error_pct": best["errors"][benchmark],
            "detailed_ops": best["detailed_ops"][benchmark],
        }
    return {
        "grid": grid,
        "best_overall": {
            "period": best_overall["period"],
            "threshold_pi": best_overall["threshold_pi"],
            "a_mean": best_overall["a_mean"],
            "g_mean": best_overall["g_mean"],
        },
        "per_benchmark_best": per_benchmark_best,
        "benchmarks": list(ctx.benchmarks),
    }


def best_configs(result: Dict[str, Any]) -> Tuple[int, float]:
    """The sweep's best overall (period, threshold) pair."""
    best = result["best_overall"]
    return best["period"], best["threshold_pi"]


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-11 table: error per benchmark for every configuration."""
    benchmarks = result["benchmarks"]
    short = [b.split(".")[1] for b in benchmarks]
    rows = []
    for entry in result["grid"]:
        row = [fmt_ops(entry["period"]), f".{int(entry['threshold_pi'] * 100):02d}"]
        row += [fmt_pct(entry["errors"][b]) for b in benchmarks]
        row += [fmt_pct(entry["a_mean"]), fmt_pct(entry["g_mean"])]
        rows.append(row)
    best = result["best_overall"]
    header = (
        "Figure 11 — PGSS sampling error (percent of benchmark IPC)\n"
        f"best overall configuration: {fmt_ops(best['period'])} period at "
        f".{int(best['threshold_pi'] * 100):02d}pi "
        f"(A-Mean {fmt_pct(best['a_mean'])})\n"
    )
    return header + table(
        ["period", "thr"] + short + ["A-Mean", "G-Mean"], rows
    )
