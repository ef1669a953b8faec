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
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..sampling.pgss import Pgss, PgssConfig
from ..stats.errors_metrics import arithmetic_mean, geometric_mean
from .cells import ExperimentCell, trace_cell
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_cell", "run_single", "best_configs"]


def run_single(
    ctx: ExperimentContext, benchmark: str, period: int, threshold_pi: float
) -> Dict[str, Any]:
    """One cached PGSS run; returns the cached result dict plus error."""
    config = PgssConfig.from_scale(
        ctx.scale, bbv_period_ops=period, threshold_pi=threshold_pi
    )
    technique = Pgss(config, machine=ctx.machine)
    result = ctx.run_cached(
        benchmark,
        technique,
        {
            "period": period,
            "threshold": threshold_pi,
            "detail": config.detail_ops,
            "warm": config.warmup_ops,
            "spread": config.spread_ops,
            "rel": config.rel_error,
        },
    )
    result = dict(result)
    result["error_pct"] = 100.0 * abs(
        result["ipc_estimate"] - ctx.true_ipc(benchmark)
    ) / ctx.true_ipc(benchmark)
    return result


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One cell per (benchmark, period, threshold) sweep point."""
    out = [trace_cell(name) for name in ctx.benchmarks]
    for period in ctx.scale.pgss_periods:
        for threshold in ctx.scale.thresholds:
            for benchmark in ctx.benchmarks:
                out.append(
                    ExperimentCell.make(
                        "fig11_pgss_sweep",
                        benchmark,
                        period=period,
                        threshold_pi=threshold,
                    )
                )
    return out


def run_cell(ctx: ExperimentContext, benchmark: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Parallel-driver entry: one cached PGSS sweep point."""
    return run_single(ctx, benchmark, params["period"], params["threshold_pi"])


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """The full period x threshold sweep over the benchmark suite."""
    grid: List[Dict[str, Any]] = []
    for period in ctx.scale.pgss_periods:
        for threshold in ctx.scale.thresholds:
            errors: Dict[str, float] = {}
            details: Dict[str, int] = {}
            for benchmark in ctx.benchmarks:
                res = run_single(ctx, benchmark, period, threshold)
                errors[benchmark] = res["error_pct"]
                details[benchmark] = res["detailed_ops"]
            values = list(errors.values())
            grid.append(
                {
                    "period": period,
                    "threshold_pi": threshold,
                    "errors": errors,
                    "detailed_ops": details,
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
