"""Figure 12: sampling error and detailed-simulation cost, all techniques.

Reproduces both panels of the paper's headline figure for the ten
benchmarks:

* **SMARTS** — one canonical configuration;
* **TurboSMARTS** — random-order sampling to the confidence target, plus
  the Section-5 observation that its absolute error "typically falls well
  outside these bounds";
* **SimPoint** — the paper's eleven configurations (three interval sizes
  x three cluster counts, plus two extras); shown as the best
  configuration per benchmark and the best single overall configuration;
* **Online SimPoint** — interval x threshold grid, same two views;
* **PGSS** — the Figure 11 sweep, same two views;
* **FullDetail** — the whole-program detailed run anchoring both panels
  (zero error, maximum cost);
* **Stratified** — two-phase stratified sampling (stage-1 phase profile,
  stage-2 Neyman-allocated budget), one canonical configuration;
* **RankedSet** — ranked-set sampling over a functional-warming cost
  proxy, one canonical configuration.

The shape to reproduce: SMARTS and SimPoint most accurate but expensive;
PGSS close in accuracy with roughly an order of magnitude less detailed
simulation than SMARTS and far less than SimPoint; PGSS both more accurate
and cheaper than TurboSMARTS.  The two stratified-family extensions sit
between SMARTS and PGSS: several times cheaper than SMARTS at comparable
error, with RankedSet the cheapest and noisiest of the family.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..errors import OrchestrationError
from ..sampling.full import FullDetail
from ..sampling.online_simpoint import OnlineSimPoint, OnlineSimPointConfig
from ..sampling.ranked import RankedSetConfig, RankedSetSampling
from ..sampling.simpoint import SimPoint, SimPointConfig
from ..sampling.smarts import Smarts, SmartsConfig
from ..sampling.stratified import TwoPhaseStratified, TwoPhaseStratifiedConfig
from ..sampling.turbosmarts import TurboSmarts, TurboSmartsConfig
from ..stats.errors_metrics import arithmetic_mean, geometric_mean
from .cells import ExperimentCell, trace_cell
from .fig11_pgss_sweep import cells as fig11_cells
from .fig11_pgss_sweep import run as run_fig11
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_cell", "OLSP_THRESHOLDS_PI"]

#: Online-SimPoint threshold grid (the paper tested "various thresholds").
OLSP_THRESHOLDS_PI = (0.05, 0.10, 0.15)


def _per_benchmark(
    ctx: ExperimentContext, run_one: Callable[[str], Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for benchmark in ctx.benchmarks:
        res = dict(run_one(benchmark))
        true = ctx.true_ipc(benchmark)
        res["error_pct"] = 100.0 * abs(res["ipc_estimate"] - true) / true
        out[benchmark] = res
    return out


def _summary(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    errors = [r["error_pct"] for r in results.values()]
    details = [r["detailed_ops"] for r in results.values()]
    return {
        "errors": {b: r["error_pct"] for b, r in results.items()},
        "detailed_ops": {b: r["detailed_ops"] for b, r in results.items()},
        "a_mean": arithmetic_mean(errors),
        "g_mean": geometric_mean(errors),
        "mean_detailed_ops": arithmetic_mean(details),
    }


def _simpoint_grid(ctx: ExperimentContext) -> List[SimPointConfig]:
    configs = [
        SimPointConfig(interval, k)
        for interval in ctx.scale.simpoint_intervals
        for k in ctx.scale.simpoint_clusters
    ]
    configs += [
        SimPointConfig(interval, k) for k, interval in ctx.scale.simpoint_extra
    ]
    # A configuration is only feasible when every benchmark yields at
    # least k intervals.
    max_intervals = ctx.scale.benchmark_ops
    return [
        cfg
        for cfg in configs
        if cfg.n_clusters <= max_intervals // cfg.interval_ops
    ]


def _full_run(ctx: ExperimentContext, benchmark: str) -> Dict[str, Any]:
    """One cached whole-program detailed run (the cost ceiling)."""
    return ctx.run_cached(benchmark, FullDetail(ctx.machine))


def _stratified_run(ctx: ExperimentContext, benchmark: str) -> Dict[str, Any]:
    """One cached two-phase stratified run (scale-canonical config)."""
    cfg = TwoPhaseStratifiedConfig.from_scale(ctx.scale)
    return ctx.run_cached(benchmark, TwoPhaseStratified(cfg, ctx.machine))


def _ranked_run(ctx: ExperimentContext, benchmark: str) -> Dict[str, Any]:
    """One cached ranked-set run (scale-canonical config)."""
    cfg = RankedSetConfig.from_scale(ctx.scale)
    return ctx.run_cached(benchmark, RankedSetSampling(cfg, ctx.machine))


def _smarts_run(ctx: ExperimentContext, benchmark: str) -> Dict[str, Any]:
    """One cached SMARTS run (the paper's canonical configuration)."""
    cfg = SmartsConfig.from_scale(ctx.scale)
    return ctx.run_cached(benchmark, Smarts(cfg, ctx.machine))


def _turbo_run(ctx: ExperimentContext, benchmark: str) -> Dict[str, Any]:
    """One cached TurboSMARTS run (confidence-targeted)."""
    cfg = TurboSmartsConfig.from_scale(ctx.scale)
    return ctx.run_cached(benchmark, TurboSmarts(cfg, ctx.machine))


def _simpoint_run(
    ctx: ExperimentContext, benchmark: str, interval: int, k: int
) -> Dict[str, Any]:
    """One cached SimPoint run at (interval, k clusters)."""
    return ctx.run_cached(benchmark, SimPoint(SimPointConfig(interval, k), ctx.machine))


def _olsp_run(
    ctx: ExperimentContext, benchmark: str, interval: int, threshold_pi: float
) -> Dict[str, Any]:
    """One cached Online-SimPoint run at (interval, threshold)."""
    technique = OnlineSimPoint(
        OnlineSimPointConfig(interval, threshold_pi), ctx.machine
    )
    return ctx.run_cached(benchmark, technique)


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One cell per (technique configuration, benchmark) pair.

    The PGSS panel reuses the Figure 11 sweep, so those cells are
    included too (the enumerator deduplicates across figures).
    """
    out = [trace_cell(name) for name in ctx.benchmarks]
    for benchmark in ctx.benchmarks:
        for technique in ("full", "smarts", "turbosmarts", "stratified", "ranked"):
            out.append(
                ExperimentCell.make(
                    "fig12_technique_comparison", benchmark, technique=technique
                )
            )
    for cfg in _simpoint_grid(ctx):
        for benchmark in ctx.benchmarks:
            out.append(
                ExperimentCell.make(
                    "fig12_technique_comparison",
                    benchmark,
                    technique="simpoint",
                    interval=cfg.interval_ops,
                    k=cfg.n_clusters,
                )
            )
    for interval in ctx.scale.simpoint_intervals:
        for threshold in OLSP_THRESHOLDS_PI:
            for benchmark in ctx.benchmarks:
                out.append(
                    ExperimentCell.make(
                        "fig12_technique_comparison",
                        benchmark,
                        technique="olsp",
                        interval=interval,
                        threshold_pi=threshold,
                    )
                )
    out.extend(fig11_cells(ctx))
    return out


def run_cell(ctx: ExperimentContext, benchmark: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Parallel-driver entry: one cached technique run."""
    technique = params["technique"]
    if technique == "full":
        return _full_run(ctx, benchmark)
    if technique == "smarts":
        return _smarts_run(ctx, benchmark)
    if technique == "turbosmarts":
        return _turbo_run(ctx, benchmark)
    if technique == "stratified":
        return _stratified_run(ctx, benchmark)
    if technique == "ranked":
        return _ranked_run(ctx, benchmark)
    if technique == "simpoint":
        return _simpoint_run(ctx, benchmark, params["interval"], params["k"])
    if technique == "olsp":
        return _olsp_run(
            ctx, benchmark, params["interval"], params["threshold_pi"]
        )
    raise OrchestrationError(f"unknown fig12 cell technique {technique!r}")


def _grid_views(
    ctx: ExperimentContext,
    runs: Dict[str, Dict[str, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Best-per-benchmark and best-overall views over a config grid.

    Args:
        runs: config label -> benchmark -> result dict (with error_pct).
    """
    labels = list(runs)
    best_overall_label = min(
        labels,
        key=lambda lab: arithmetic_mean(
            [runs[lab][b]["error_pct"] for b in ctx.benchmarks]
        ),
    )
    best_per: Dict[str, Dict[str, Any]] = {}
    for benchmark in ctx.benchmarks:
        lab = min(labels, key=lambda L: runs[L][benchmark]["error_pct"])
        entry = dict(runs[lab][benchmark])
        entry["config"] = lab
        best_per[benchmark] = entry
    return {
        "best_overall_config": best_overall_label,
        "best_overall": _summary(runs[best_overall_label]),
        "best_per_benchmark": _summary(best_per),
        "best_per_benchmark_configs": {
            b: best_per[b]["config"] for b in ctx.benchmarks
        },
    }


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Run every technique on every benchmark (cached)."""
    result: Dict[str, Any] = {"benchmarks": list(ctx.benchmarks)}

    # Full detail: the zero-error, maximum-cost anchor of both panels.
    result["FullDetail"] = _summary(
        _per_benchmark(ctx, lambda b: _full_run(ctx, b))
    )

    # SMARTS.
    result["SMARTS"] = _summary(
        _per_benchmark(ctx, lambda b: _smarts_run(ctx, b))
    )

    # Two-phase stratified and ranked-set (single canonical config each).
    result["Stratified"] = _summary(
        _per_benchmark(ctx, lambda b: _stratified_run(ctx, b))
    )
    result["RankedSet"] = _summary(
        _per_benchmark(ctx, lambda b: _ranked_run(ctx, b))
    )

    # TurboSMARTS (+ CI coverage observation).
    turbo_cfg = TurboSmartsConfig.from_scale(ctx.scale)
    turbo_runs = _per_benchmark(ctx, lambda b: _turbo_run(ctx, b))
    result["TurboSMARTS"] = _summary(turbo_runs)
    converged = [
        b for b, r in turbo_runs.items() if r["extras"].get("converged")
    ]
    outside = [
        b
        for b in converged
        if turbo_runs[b]["error_pct"] > 100.0 * turbo_cfg.rel_error
    ]
    result["TurboSMARTS"]["converged"] = converged
    result["TurboSMARTS"]["error_outside_bounds"] = outside
    result["TurboSMARTS"]["rel_error_target_pct"] = 100.0 * turbo_cfg.rel_error

    # SimPoint grid (profiling + interval IPCs from the reference trace).
    sp_runs: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for cfg in _simpoint_grid(ctx):
        sp_runs[cfg.label] = _per_benchmark(
            ctx,
            lambda b, c=cfg: _simpoint_run(ctx, b, c.interval_ops, c.n_clusters),
        )
    result["SimPoint"] = _grid_views(ctx, sp_runs)

    # Online SimPoint grid.
    olsp_runs: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for interval in ctx.scale.simpoint_intervals:
        for threshold in OLSP_THRESHOLDS_PI:
            cfg = OnlineSimPointConfig(interval, threshold)
            olsp_runs[cfg.label] = _per_benchmark(
                ctx,
                lambda b, c=cfg: _olsp_run(
                    ctx, b, c.interval_ops, c.threshold_pi
                ),
            )
    result["OnlineSimPoint"] = _grid_views(ctx, olsp_runs)

    # PGSS: reuse the Figure 11 sweep.
    fig11 = run_fig11(ctx)
    pgss_runs: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for entry in fig11["grid"]:
        label = f"{fmt_ops(entry['period'])}/.{int(entry['threshold_pi'] * 100):02d}"
        pgss_runs[label] = {
            b: {
                "error_pct": entry["errors"][b],
                "detailed_ops": entry["detailed_ops"][b],
                "ipc_estimate": 0.0,
            }
            for b in ctx.benchmarks
        }
    result["PGSS"] = _grid_views(ctx, pgss_runs)

    return result


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-12 tables: error panel and detailed-ops panel."""
    benchmarks = result["benchmarks"]
    short = [b.split(".")[1] for b in benchmarks]

    views = [
        ("FullDetail", result["FullDetail"]),
        ("SMARTS", result["SMARTS"]),
        ("TurboSMARTS", result["TurboSMARTS"]),
        ("SimPoint(best)", result["SimPoint"]["best_per_benchmark"]),
        (
            f"SimPoint({result['SimPoint']['best_overall_config']})",
            result["SimPoint"]["best_overall"],
        ),
        ("OLSP(best)", result["OnlineSimPoint"]["best_per_benchmark"]),
        (
            f"OLSP({result['OnlineSimPoint']['best_overall_config']})",
            result["OnlineSimPoint"]["best_overall"],
        ),
        ("PGSS(best)", result["PGSS"]["best_per_benchmark"]),
        (
            f"PGSS({result['PGSS']['best_overall_config']})",
            result["PGSS"]["best_overall"],
        ),
        ("Stratified", result["Stratified"]),
        ("RankedSet", result["RankedSet"]),
    ]

    error_rows = []
    detail_rows = []
    for label, view in views:
        error_rows.append(
            [label]
            + [fmt_pct(view["errors"][b]) for b in benchmarks]
            + [fmt_pct(view["a_mean"]), fmt_pct(view["g_mean"])]
        )
        detail_rows.append(
            [label]
            + [fmt_ops(view["detailed_ops"][b]) for b in benchmarks]
            + [fmt_ops(view["mean_detailed_ops"]), ""]
        )

    turbo = result["TurboSMARTS"]
    pgss_detail = result["PGSS"]["best_overall"]["mean_detailed_ops"]
    smarts_detail = result["SMARTS"]["mean_detailed_ops"]
    sp_detail = result["SimPoint"]["best_overall"]["mean_detailed_ops"]
    header = (
        "Figure 12 — sampling error and detailed simulation per technique\n"
        f"PGSS uses {smarts_detail / pgss_detail:.1f}x less detail than "
        f"SMARTS and {sp_detail / pgss_detail:.1f}x less than SimPoint.\n"
        f"TurboSMARTS converged on {len(turbo['converged'])} benchmarks; "
        f"true error exceeded the {turbo['rel_error_target_pct']:.0f}% bound "
        f"on {len(turbo['error_outside_bounds'])} of them "
        "(the Gaussian-assumption failure the paper describes).\n\n"
    )
    return (
        header
        + "Sampling error (percent of benchmark IPC):\n"
        + table(["technique"] + short + ["A-Mean", "G-Mean"], error_rows)
        + "\n\nAmount of detailed simulation (ops):\n"
        + table(["technique"] + short + ["mean", ""], detail_rows)
    )
