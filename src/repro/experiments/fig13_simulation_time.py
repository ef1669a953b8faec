"""Figure 13: simulation rates per mode and total simulation time.

Two parts, mirroring the paper's figure:

* the measured simulation rate of every execution mode, with and without
  BBV tracking (the paper: BBV overhead is ~1% on detailed modes and
  negligible on functional warming);
* the total simulation time of every technique family in Figure 12 —
  FullDetail, SMARTS, TurboSMARTS, SimPoint, Online SimPoint, PGSS-Sim,
  two-phase stratified, and ranked-set — for the whole benchmark suite:
  each run's per-mode operation counts (``accounting_ops``), summed over
  the suite and divided by the measured rate of each mode (no
  checkpointing, as in the paper).  The Stratified and RankedSet rows
  replay their measurement passes' detailed timing from an outcome
  record made within the same run (:class:`~repro.cpu.OutcomeRecord`),
  so each warms the program once, not once per pass.

The paper also notes its fast-forwarding is "only approximately four times
faster than detailed simulation", which caps the wall-clock advantage of
reduced detail; the measured ratio here is reported for comparison.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import Any, Dict, List, Tuple

from ..signals import BbvTracker
from ..cpu import Mode, SimulationEngine
from ..errors import OrchestrationError
from ..program import get_workload
from .cells import ExperimentCell
from .fig12_technique_comparison import cells as fig12_cells
from .fig12_technique_comparison import run as run_fig12
from .formatting import table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "run_cell", "measure_rates"]

#: Workload and op budget used for rate calibration.
RATE_BENCHMARK = "164.gzip"
RATE_OPS = 600_000
#: Untimed ops run first in every engine (interpreter warm-up).
WARMUP_OPS = RATE_OPS // 10
#: Least host time behind one timed run: its ``RATE_OPS`` repeat on
#: fresh engines until they add up to this many seconds.
RATE_MIN_SECONDS = 0.05
#: Timed runs per rate; each rate is the best of them.
RATE_REPS = 3
#: The modes in the paper's order, fastest first.
RATE_MODES = (Mode.FUNC_FAST, Mode.FUNC_WARM, Mode.DETAIL_WARM, Mode.DETAIL)


def measure_rates(ctx: ExperimentContext) -> Dict[str, float]:
    """Measure ops/second for each mode, with and without BBV tracking.

    The rate program is built long enough for the warm-up plus
    ``RATE_OPS`` at any scale, so every timed run covers the full op
    budget.  One timed run repeats that budget, each time on a fresh
    engine, until ``RATE_MIN_SECONDS`` have passed, and its rate is all
    the ops over all that time: ``RATE_OPS`` alone is about a millisecond
    of FUNC_FAST, too short to time on a shared host.
    """
    scale = ctx.scale
    if scale.benchmark_ops < WARMUP_OPS + RATE_OPS:
        scale = replace(scale, benchmark_ops=WARMUP_OPS + RATE_OPS)
    program = get_workload(RATE_BENCHMARK, scale)

    def one(mode: Mode, with_bbv: bool) -> float:
        ops = 0
        elapsed = 0.0
        while elapsed < RATE_MIN_SECONDS:
            tracker = BbvTracker() if with_bbv else None
            engine = SimulationEngine(
                program, machine=ctx.machine, signal_tracker=tracker
            )
            # Warm the interpreter and caches briefly before timing.
            engine.run(mode, WARMUP_OPS)
            # Timing measures simulator throughput for the figure; it
            # never influences simulated state.
            start = time.perf_counter()  # simlint: disable=DET005
            run = engine.run(mode, RATE_OPS)
            elapsed += time.perf_counter() - start  # simlint: disable=DET005
            assert run.ops >= RATE_OPS, f"{mode.value} ended inside the timed run"
            ops += run.ops
        return ops / elapsed

    runs = {
        f"{mode.value}{'+bbv' if with_bbv else ''}": (mode, with_bbv)
        for mode in RATE_MODES
        for with_bbv in (False, True)
    }
    # Best of RATE_REPS runs per key, interleaved across the keys, so a
    # slow stretch of the host costs each key one run, not one key all.
    rates = dict.fromkeys(runs, 0.0)
    for _ in range(RATE_REPS):
        for key, (mode, with_bbv) in runs.items():
            rates[key] = max(rates[key], one(mode, with_bbv))
    return rates


def _cached_rates(ctx: ExperimentContext) -> Dict[str, float]:
    """The cached per-mode rate table (measured once per cache lifetime).

    Rates are host-time measurements, so unlike every other cell they are
    not reproducible across cache-cleared runs — but caching the single
    measurement means every consumer (serial or parallel, any job count)
    reads the same numbers.
    """
    # The engine tag names the code whose speed is measured: bump it when
    # a mode's rate changes, or a warm cache keeps serving stale rates.
    return ctx.cache.json(
        {"kind": "rates", "scale": ctx.scale.name, "ops": RATE_OPS,
         "engine": "address-windows-min-50ms", "machine": asdict(ctx.machine)},
        lambda: measure_rates(ctx),
    )


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """The rate-calibration cell plus everything Figure 12 needs."""
    out = [
        ExperimentCell.make("fig13_simulation_time", RATE_BENCHMARK, unit="rates")
    ]
    out.extend(fig12_cells(ctx))
    return out


def run_cell(ctx: ExperimentContext, benchmark: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Parallel-driver entry: the cached rate measurement."""
    if params.get("unit") == "rates":
        return _cached_rates(ctx)
    raise OrchestrationError(f"unknown fig13 cell params {params!r}")


def _technique_times(
    ctx: ExperimentContext, rates: Dict[str, float], fig12: Dict[str, Any]
) -> Dict[str, Dict[str, float]]:
    """Suite seconds per technique and mode, keyed by ``Mode.value``."""

    def accounted(
        view: Dict[str, Any], tracked: Tuple[str, ...] = ()
    ) -> Dict[str, float]:
        """*view*'s summed ops per mode over that mode's rate; the
        *tracked* modes run at their ``+bbv`` rate."""
        return {
            mode: ops / rates[f"{mode}+bbv" if mode in tracked else mode]
            for mode, ops in view["accounting_ops"].items()
        }

    # SimPoint and Online SimPoint read interval BBVs and IPCs from the
    # reference trace, so their accounting is empty: their rows model
    # the passes a standalone run would make.  SimPoint profiles the
    # suite with BBVs, then fast-forwards to each representative and
    # simulates it; Online SimPoint makes one pass, BBVs on throughout.
    suite_ops = sum(ctx.trace(b).total_ops for b in ctx.benchmarks)
    sp_detail = sum(fig12["SimPoint"]["best_overall"]["detailed_ops"].values())
    olsp_detail = sum(
        fig12["OnlineSimPoint"]["best_overall"]["detailed_ops"].values()
    )
    return {
        "FullDetail": accounted(fig12["FullDetail"]),
        "SMARTS": accounted(fig12["SMARTS"]),
        "TurboSMARTS": accounted(fig12["TurboSMARTS"]),
        "SimPoint": {
            "func_fast": suite_ops / rates["func_fast+bbv"]
            + (suite_ops - sp_detail) / rates["func_fast"],
            "detail": sp_detail / rates["detail"],
        },
        "OnlineSimPoint": {
            "func_fast": (suite_ops - olsp_detail) / rates["func_fast+bbv"],
            "detail": olsp_detail / rates["detail+bbv"],
        },
        # PGSS tracks BBVs in every mode; the stratified stage-1 profile
        # is the one FUNC_FAST+BBV pass among the untracked runs.
        "PGSS": accounted(
            fig12["PGSS"]["best_overall"], tracked=tuple(m.value for m in Mode)
        ),
        "Stratified": accounted(fig12["Stratified"], tracked=("func_fast",)),
        "RankedSet": accounted(fig12["RankedSet"]),
    }


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Measure rates and compose suite-level simulation times."""
    rates = _cached_rates(ctx)
    fig12 = run_fig12(ctx)
    times = _technique_times(ctx, rates, fig12)
    detail_ratio = rates["func_warm"] / rates["detail"] if rates["detail"] else 0.0
    bbv_overhead_detail = (
        1.0 - rates["detail+bbv"] / rates["detail"] if rates["detail"] else 0.0
    )
    pgss_detail_seconds = times["PGSS"]["detail_warm"] + times["PGSS"]["detail"]
    return {
        "rates": rates,
        "times": {t: dict(parts) for t, parts in times.items()},
        "totals": {t: sum(parts.values()) for t, parts in times.items()},
        "ff_vs_detail_ratio": detail_ratio,
        "bbv_overhead_detail": bbv_overhead_detail,
        "pgss_detail_seconds": pgss_detail_seconds,
    }


def format_result(result: Dict[str, Any]) -> str:
    """Fig.-13 tables: per-mode rates and per-technique totals."""
    rate_rows: List[List[str]] = []
    label = {
        "func_fast": "Fast-Forward",
        "func_warm": "Functional Fast-Forward",
        "detail_warm": "Detailed Warming",
        "detail": "Detailed Simulation",
    }
    modes = [mode.value for mode in RATE_MODES]
    for key in modes:
        rate_rows.append(
            [
                label[key],
                f"{result['rates'][key] / 1e3:,.0f} kops/s",
                f"{result['rates'][key + '+bbv'] / 1e3:,.0f} kops/s",
            ]
        )
    time_rows = [
        [tech, f"{total:,.1f} s"]
        + [f"{result['times'][tech].get(mode, 0.0):,.1f}" for mode in modes]
        for tech, total in result["totals"].items()
    ]
    header = (
        "Figure 13 — measured simulation rates and total suite times "
        "(no checkpointing; Stratified and RankedSet replay their "
        "measurement passes from outcome records made within the run)\n"
        f"functional warming is {result['ff_vs_detail_ratio']:.1f}x faster "
        f"than detail (paper: ~4x); BBV overhead on detail: "
        f"{100 * result['bbv_overhead_detail']:.1f}%\n"
        f"PGSS combined detailed warming + simulation: "
        f"{result['pgss_detail_seconds']:.2f} s for the whole suite\n"
        "TurboSMARTS is timed on the run that simulates SMARTS's whole "
        "sample universe (its per-mode ops equal SMARTS's), while Fig. 12 "
        "charges it only the detailed ops of the samples it consumed.\n\n"
    )
    return (
        header
        + table(["mode", "w/o BBV", "with BBV"], rate_rows)
        + "\n\n"
        + table(["technique", "total"] + [f"{mode}(s)" for mode in modes], time_rows)
    )
