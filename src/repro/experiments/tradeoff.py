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

Every (sweep point, benchmark) run is a technique cell
(:func:`~repro.experiments.cells.technique_cell`); ``_curves`` builds the
sweep points once for both ``cells()`` and ``run()``.  The canonical
points coincide with Figs. 11 and 12 runs, and the enumerator runs each
such cell once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..sampling.base import SamplingTechnique
from ..sampling.pgss import Pgss, PgssConfig
from ..sampling.ranked import RankedSetConfig, RankedSetSampling
from ..sampling.smarts import Smarts, SmartsConfig
from ..sampling.stratified import TwoPhaseStratified, TwoPhaseStratifiedConfig
from ..stats.errors_metrics import arithmetic_mean
from .cells import ExperimentCell, technique_cell, trace_cell
from .formatting import fmt_ops, fmt_pct, table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells"]

#: SMARTS period multipliers swept (relative to the scale's canonical one).
SMARTS_PERIOD_FACTORS = (0.5, 1, 2, 4, 8)

#: PGSS spread multipliers swept (relative to the scale's canonical one).
PGSS_SPREAD_FACTORS = (0.25, 0.5, 1, 2, 4)

#: Stratified total-budget multipliers swept (relative to the scale's).
STRATIFIED_SAMPLE_FACTORS = (0.5, 1, 2, 4)

#: Ranked-set set sizes swept (bigger sets = fewer, better-ranked samples).
RANKED_SET_SIZES = (2, 3, 4, 5)


def _sweep_point(
    ctx: ExperimentContext, technique: SamplingTechnique
) -> Dict[str, float]:
    """Suite-level error/cost summary of *technique*'s cached runs."""
    errors = []
    details = []
    for name in ctx.benchmarks:
        res = ctx.run_cached(name, technique)
        true = ctx.true_ipc(name)
        errors.append(100.0 * abs(res["ipc_estimate"] - true) / true)
        details.append(res["detailed_ops"])
    return {
        "a_mean_error": arithmetic_mean(errors),
        "mean_detailed_ops": arithmetic_mean(details),
    }


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


def _curves(
    ctx: ExperimentContext,
) -> Dict[str, List[Tuple[Dict[str, Any], SamplingTechnique]]]:
    """Every sweep point, by curve: its knob setting and the technique run."""
    scale, machine = ctx.scale, ctx.machine
    smarts = SmartsConfig.from_scale(scale)
    return {
        "smarts": [
            ({"period": period}, Smarts(replace(smarts, period_ops=period), machine))
            for period in _smarts_periods(ctx)
        ],
        "smarts_cold": [
            (
                {"period": period},
                Smarts(
                    replace(smarts, period_ops=period, functional_warming=False),
                    machine,
                ),
            )
            for period in _smarts_periods(ctx)
        ],
        "pgss": [
            ({"spread": spread}, Pgss(PgssConfig.from_scale(scale, spread_ops=spread), machine))
            for spread in _pgss_spreads(ctx)
        ],
        "stratified": [
            (
                {"samples": samples},
                TwoPhaseStratified(
                    TwoPhaseStratifiedConfig.from_scale(scale, total_samples=samples),
                    machine,
                ),
            )
            for samples in _stratified_budgets(ctx)
        ],
        "ranked": [
            (
                {"set_size": set_size},
                RankedSetSampling(
                    RankedSetConfig.from_scale(scale, set_size=set_size), machine
                ),
            )
            for set_size in RANKED_SET_SIZES
        ],
    }


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """One technique cell per (sweep point, benchmark) pair."""
    out = [trace_cell(name) for name in ctx.benchmarks]
    for points in _curves(ctx).values():
        for _knob, technique in points:
            out.extend(technique_cell(b, technique) for b in ctx.benchmarks)
    return out


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Sweep every technique's budget knob; include the warming ablation."""
    result: Dict[str, Any] = {
        curve: [{**knob, **_sweep_point(ctx, technique)} for knob, technique in points]
        for curve, points in _curves(ctx).items()
    }
    # Warming ablation headline: cold-vs-warm error gap at the canonical
    # period.
    warm_base = result["smarts"][1]
    cold_base = result["smarts_cold"][1]
    result["warming_gap"] = cold_base["a_mean_error"] - warm_base["a_mean_error"]
    return result


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
