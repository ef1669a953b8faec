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

Every (technique configuration, benchmark) run is a technique cell
(:func:`~repro.experiments.cells.technique_cell`); ``_techniques`` builds
the technique objects once for both ``cells()`` and ``run()``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..cpu.engine import Mode
from ..sampling.base import SamplingTechnique
from ..sampling.full import FullDetail
from ..sampling.online_simpoint import OnlineSimPoint, OnlineSimPointConfig
from ..sampling.ranked import RankedSetConfig, RankedSetSampling
from ..sampling.simpoint import SimPoint, SimPointConfig
from ..sampling.smarts import Smarts, SmartsConfig
from ..sampling.stratified import TwoPhaseStratified, TwoPhaseStratifiedConfig
from ..sampling.turbosmarts import TurboSmarts, TurboSmartsConfig
from ..stats.errors_metrics import arithmetic_mean, geometric_mean
from .cells import ExperimentCell, technique_cell, trace_cell
from .fig11_pgss_sweep import cells as fig11_cells
from .fig11_pgss_sweep import run as run_fig11
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "OLSP_THRESHOLDS_PI"]

#: Online-SimPoint threshold grid (the paper tested "various thresholds").
OLSP_THRESHOLDS_PI = (0.05, 0.10, 0.15)


def _per_benchmark(
    ctx: ExperimentContext, technique: SamplingTechnique
) -> Dict[str, Dict[str, Any]]:
    """*technique*'s cached run on every benchmark, plus its error."""
    out: Dict[str, Dict[str, Any]] = {}
    for benchmark in ctx.benchmarks:
        res = dict(ctx.run_cached(benchmark, technique))
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
        "accounting_ops": {
            m.value: sum(r["accounting_ops"][m.value] for r in results.values())
            for m in Mode
        },
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


def _techniques(ctx: ExperimentContext) -> Dict[str, List[SamplingTechnique]]:
    """Every technique run of the figure except PGSS (Figure 11's sweep),
    by technique name: one canonical configuration, or a config grid."""
    scale, machine = ctx.scale, ctx.machine
    return {
        "FullDetail": [FullDetail(machine)],
        "SMARTS": [Smarts(SmartsConfig.from_scale(scale), machine)],
        "TurboSMARTS": [TurboSmarts(TurboSmartsConfig.from_scale(scale), machine)],
        "Stratified": [
            TwoPhaseStratified(TwoPhaseStratifiedConfig.from_scale(scale), machine)
        ],
        "RankedSet": [RankedSetSampling(RankedSetConfig.from_scale(scale), machine)],
        "SimPoint": [SimPoint(cfg, machine) for cfg in _simpoint_grid(ctx)],
        "OnlineSimPoint": [
            OnlineSimPoint(OnlineSimPointConfig(interval, threshold), machine)
            for interval in scale.simpoint_intervals
            for threshold in OLSP_THRESHOLDS_PI
        ],
    }


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One technique cell per (technique configuration, benchmark) pair.

    The PGSS panel reuses the Figure 11 sweep, so those cells are
    included too (the enumerator deduplicates across figures).
    """
    out = [trace_cell(name) for name in ctx.benchmarks]
    for row in _techniques(ctx).values():
        for technique in row:
            out.extend(technique_cell(b, technique) for b in ctx.benchmarks)
    out.extend(fig11_cells(ctx))
    return out


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
    techniques = _techniques(ctx)

    # Full detail (the zero-error, maximum-cost anchor of both panels),
    # SMARTS, and the two stratified-family extensions: one config each.
    for name in ("FullDetail", "SMARTS", "Stratified", "RankedSet"):
        (technique,) = techniques[name]
        result[name] = _summary(_per_benchmark(ctx, technique))

    # TurboSMARTS (+ CI coverage observation).
    (turbo,) = techniques["TurboSMARTS"]
    turbo_runs = _per_benchmark(ctx, turbo)
    result["TurboSMARTS"] = _summary(turbo_runs)
    converged = [
        b for b, r in turbo_runs.items() if r["extras"].get("converged")
    ]
    outside = [
        b
        for b in converged
        if turbo_runs[b]["error_pct"] > 100.0 * turbo.config.rel_error
    ]
    result["TurboSMARTS"]["converged"] = converged
    result["TurboSMARTS"]["error_outside_bounds"] = outside
    result["TurboSMARTS"]["rel_error_target_pct"] = 100.0 * turbo.config.rel_error

    # SimPoint (profiling + interval IPCs from the reference trace) and
    # Online SimPoint config grids.
    for name in ("SimPoint", "OnlineSimPoint"):
        result[name] = _grid_views(
            ctx, {t.config.label: _per_benchmark(ctx, t) for t in techniques[name]}
        )

    # PGSS: reuse the Figure 11 sweep.
    fig11 = run_fig11(ctx)
    pgss_runs: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for entry in fig11["grid"]:
        label = f"{fmt_ops(entry['period'])}/.{int(entry['threshold_pi'] * 100):02d}"
        pgss_runs[label] = {
            b: {
                "error_pct": entry["errors"][b],
                "detailed_ops": entry["detailed_ops"][b],
                "accounting_ops": entry["accounting_ops"][b],
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
