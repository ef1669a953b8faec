"""Extension experiment: the accuracy / detailed-simulation Pareto frontier.

Not a figure from the paper, but the question its Figure 12 begs: *for a
given detailed-op budget, which technique wins?*  SMARTS trades budget via
its sampling period, PGSS via its spread rule, two-phase stratified via
its total sample budget, and ranked-set via its set size; sweeping each
produces an error-vs-detail curve per technique.  The paper's thesis
corresponds to the PGSS curve lying below-left of the SMARTS curve over
the low-budget region.

Also includes the functional-warming ablation: SMARTS with cold samples
(the pre-SMARTS sampling of Conte et al.) is biased because long-lifetime
state is stale at each sample — quantified here as the cold-vs-warm error
gap at equal budget.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

from ..errors import OrchestrationError
from ..sampling.pgss import Pgss, PgssConfig
from ..sampling.ranked import RankedSetConfig, RankedSetSampling
from ..sampling.smarts import Smarts, SmartsConfig
from ..sampling.stratified import TwoPhaseStratified, TwoPhaseStratifiedConfig
from ..stats.errors_metrics import arithmetic_mean
from .cells import ExperimentCell, trace_cell
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_cell"]

#: SMARTS period multipliers swept (relative to the scale's canonical one).
SMARTS_PERIOD_FACTORS = (0.5, 1, 2, 4, 8)

#: PGSS spread multipliers swept (relative to the scale's canonical one).
PGSS_SPREAD_FACTORS = (0.25, 0.5, 1, 2, 4)

#: Stratified total-budget multipliers swept (relative to the scale's).
STRATIFIED_SAMPLE_FACTORS = (0.5, 1, 2, 4)

#: Ranked-set set sizes swept (bigger sets = fewer, better-ranked samples).
RANKED_SET_SIZES = (2, 3, 4, 5)


def _smarts_run(
    ctx: ExperimentContext, benchmark: str, period: int, warming: bool
) -> Dict[str, Any]:
    """One cached SMARTS sweep-point run on one benchmark."""
    cfg = replace(
        SmartsConfig.from_scale(ctx.scale),
        period_ops=period,
        functional_warming=warming,
    )
    return ctx.run_cached(benchmark, Smarts(cfg, ctx.machine))


def _pgss_run(
    ctx: ExperimentContext, benchmark: str, spread: int
) -> Dict[str, Any]:
    """One cached PGSS sweep-point run on one benchmark."""
    cfg = PgssConfig.from_scale(ctx.scale, spread_ops=spread)
    return ctx.run_cached(benchmark, Pgss(cfg, ctx.machine))


def _stratified_run(
    ctx: ExperimentContext, benchmark: str, samples: int
) -> Dict[str, Any]:
    """One cached two-phase stratified sweep-point run on one benchmark."""
    cfg = TwoPhaseStratifiedConfig.from_scale(ctx.scale, total_samples=samples)
    return ctx.run_cached(benchmark, TwoPhaseStratified(cfg, ctx.machine))


def _ranked_run(
    ctx: ExperimentContext, benchmark: str, set_size: int
) -> Dict[str, Any]:
    """One cached ranked-set sweep-point run on one benchmark."""
    cfg = RankedSetConfig.from_scale(ctx.scale, set_size=set_size)
    return ctx.run_cached(benchmark, RankedSetSampling(cfg, ctx.machine))


def _sweep_point(
    ctx: ExperimentContext, results: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Suite-level error/cost summary of one sweep point's runs."""
    errors = []
    details = []
    for name, res in zip(ctx.benchmarks, results):
        true = ctx.true_ipc(name)
        errors.append(100.0 * abs(res["ipc_estimate"] - true) / true)
        details.append(res["detailed_ops"])
    return {
        "a_mean_error": arithmetic_mean(errors),
        "mean_detailed_ops": arithmetic_mean(details),
    }


def _smarts_point(
    ctx: ExperimentContext, period: int, warming: bool
) -> Dict[str, float]:
    return _sweep_point(
        ctx, [_smarts_run(ctx, b, period, warming) for b in ctx.benchmarks]
    )


def _pgss_point(ctx: ExperimentContext, spread: int) -> Dict[str, float]:
    return _sweep_point(
        ctx, [_pgss_run(ctx, b, spread) for b in ctx.benchmarks]
    )


def _stratified_point(ctx: ExperimentContext, samples: int) -> Dict[str, float]:
    return _sweep_point(
        ctx, [_stratified_run(ctx, b, samples) for b in ctx.benchmarks]
    )


def _ranked_point(ctx: ExperimentContext, set_size: int) -> Dict[str, float]:
    return _sweep_point(
        ctx, [_ranked_run(ctx, b, set_size) for b in ctx.benchmarks]
    )


def _smarts_periods(ctx: ExperimentContext) -> List[int]:
    return [int(ctx.scale.smarts_period * f) for f in SMARTS_PERIOD_FACTORS]


def _pgss_spreads(ctx: ExperimentContext) -> List[int]:
    # A spread below the period is clamped up to it, so low factors can
    # coincide (three of five at PAPER scale); each point is swept once.
    return list(
        dict.fromkeys(
            max(int(ctx.scale.pgss_spread * f), ctx.scale.pgss_best_period)
            for f in PGSS_SPREAD_FACTORS
        )
    )


def _stratified_budgets(ctx: ExperimentContext) -> List[int]:
    return list(
        dict.fromkeys(
            max(int(ctx.scale.stratified_samples * f), 2)
            for f in STRATIFIED_SAMPLE_FACTORS
        )
    )


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One cell per (sweep point, benchmark) pair for both techniques."""
    out = [trace_cell(name) for name in ctx.benchmarks]
    for period in _smarts_periods(ctx):
        for warming in (True, False):
            for benchmark in ctx.benchmarks:
                out.append(
                    ExperimentCell.make(
                        "tradeoff",
                        benchmark,
                        technique="smarts",
                        period=period,
                        warming=warming,
                    )
                )
    for spread in _pgss_spreads(ctx):
        for benchmark in ctx.benchmarks:
            out.append(
                ExperimentCell.make(
                    "tradeoff", benchmark, technique="pgss", spread=spread
                )
            )
    for samples in _stratified_budgets(ctx):
        for benchmark in ctx.benchmarks:
            out.append(
                ExperimentCell.make(
                    "tradeoff", benchmark, technique="stratified", samples=samples
                )
            )
    for set_size in RANKED_SET_SIZES:
        for benchmark in ctx.benchmarks:
            out.append(
                ExperimentCell.make(
                    "tradeoff", benchmark, technique="ranked", set_size=set_size
                )
            )
    return out


def run_cell(ctx: ExperimentContext, benchmark: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Parallel-driver entry: one cached sweep-point run."""
    technique = params["technique"]
    if technique == "smarts":
        return _smarts_run(ctx, benchmark, params["period"], params["warming"])
    if technique == "pgss":
        return _pgss_run(ctx, benchmark, params["spread"])
    if technique == "stratified":
        return _stratified_run(ctx, benchmark, params["samples"])
    if technique == "ranked":
        return _ranked_run(ctx, benchmark, params["set_size"])
    raise OrchestrationError(f"unknown tradeoff cell technique {technique!r}")


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Sweep both techniques' budget knobs; include the warming ablation."""
    smarts_curve: List[Dict[str, float]] = []
    cold_curve: List[Dict[str, float]] = []
    for period in _smarts_periods(ctx):
        smarts_curve.append(
            {"period": period, **_smarts_point(ctx, period, warming=True)}
        )
        cold_curve.append(
            {"period": period, **_smarts_point(ctx, period, warming=False)}
        )

    pgss_curve: List[Dict[str, float]] = []
    for spread in _pgss_spreads(ctx):
        pgss_curve.append({"spread": spread, **_pgss_point(ctx, spread)})

    stratified_curve: List[Dict[str, float]] = []
    for samples in _stratified_budgets(ctx):
        stratified_curve.append(
            {"samples": samples, **_stratified_point(ctx, samples)}
        )

    ranked_curve: List[Dict[str, float]] = []
    for set_size in RANKED_SET_SIZES:
        ranked_curve.append(
            {"set_size": set_size, **_ranked_point(ctx, set_size)}
        )

    # Warming ablation headline: cold-vs-warm error gap at the canonical
    # period.
    warm_base = smarts_curve[1]
    cold_base = cold_curve[1]
    return {
        "smarts": smarts_curve,
        "smarts_cold": cold_curve,
        "pgss": pgss_curve,
        "stratified": stratified_curve,
        "ranked": ranked_curve,
        "warming_gap": cold_base["a_mean_error"] - warm_base["a_mean_error"],
    }


def format_result(result: Dict[str, Any]) -> str:
    """The tradeoff table: detail budget vs error per technique."""
    rows = []
    for entry in result["smarts"]:
        rows.append(
            [
                "SMARTS (warm)",
                f"period {fmt_ops(entry['period'])}",
                fmt_ops(entry["mean_detailed_ops"]),
                fmt_pct(entry["a_mean_error"]),
            ]
        )
    for entry in result["smarts_cold"]:
        rows.append(
            [
                "SMARTS (cold FF)",
                f"period {fmt_ops(entry['period'])}",
                fmt_ops(entry["mean_detailed_ops"]),
                fmt_pct(entry["a_mean_error"]),
            ]
        )
    for entry in result["pgss"]:
        rows.append(
            [
                "PGSS",
                f"spread {fmt_ops(entry['spread'])}",
                fmt_ops(entry["mean_detailed_ops"]),
                fmt_pct(entry["a_mean_error"]),
            ]
        )
    for entry in result.get("stratified", []):
        rows.append(
            [
                "Stratified",
                f"budget {entry['samples']}",
                fmt_ops(entry["mean_detailed_ops"]),
                fmt_pct(entry["a_mean_error"]),
            ]
        )
    for entry in result.get("ranked", []):
        rows.append(
            [
                "RankedSet",
                f"set {entry['set_size']}",
                fmt_ops(entry["mean_detailed_ops"]),
                fmt_pct(entry["a_mean_error"]),
            ]
        )
    header = (
        "Extension — accuracy vs detailed-simulation budget\n"
        f"cold fast-forwarding costs {result['warming_gap']:+.2f} points of "
        "A-mean error at the canonical SMARTS period "
        "(the functional-warming ablation)\n"
    )
    return header + table(["technique", "knob", "detail (mean)", "A-mean err"], rows)
