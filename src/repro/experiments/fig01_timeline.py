"""Figure 1: where each technique spends its detailed simulation.

The paper's Figure 1 is an illustration: SMARTS takes small periodic
samples regardless of phase, SimPoint takes one large sample per phase,
and PGSS uses phase information to decide where small samples go.  This
experiment regenerates that picture *from real runs* — the true phase
script, the actual sample positions of SMARTS and PGSS, and SimPoint's
chosen representative intervals, rendered as aligned ASCII timelines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..events import EventBus, SampleTaken
from ..sampling.pgss import Pgss, PgssConfig
from ..sampling.simpoint import SimPoint, SimPointConfig
from ..sampling.smarts import Smarts, SmartsConfig
from .cells import ExperimentCell, trace_cell
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells", "BENCHMARK", "TIMELINE_COLS"]

BENCHMARK = "183.equake"
TIMELINE_COLS = 96


def _mark_positions(
    offsets: Sequence[int], total_ops: int, cols: int = TIMELINE_COLS
) -> str:
    line = ["."] * cols
    for offset in offsets:
        col = min(int(offset / total_ops * cols), cols - 1)
        line[col] = "|"
    return "".join(line)


def _mark_intervals(
    spans: Sequence[tuple], total_ops: int, cols: int = TIMELINE_COLS
) -> str:
    line = ["."] * cols
    for start, end in spans:
        lo = min(int(start / total_ops * cols), cols - 1)
        hi = min(int(end / total_ops * cols), cols - 1)
        for col in range(lo, hi + 1):
            line[col] = "#"
    return "".join(line)


def _phase_line(ctx: ExperimentContext, benchmark: str, total_ops: int) -> str:
    program = ctx.program(benchmark)
    names = sorted({segment.behavior for segment in program.script})
    letters = {name: chr(ord("A") + i) for i, name in enumerate(names)}
    line = []
    for col in range(TIMELINE_COLS):
        op = int((col + 0.5) / TIMELINE_COLS * total_ops)
        line.append(letters[program.true_phase_at(op)])
    return "".join(line), {letters[n]: n for n in names}


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: the subject benchmark's reference trace."""
    return [trace_cell(BENCHMARK)]


def run(ctx: ExperimentContext, benchmark: str = BENCHMARK) -> Dict[str, Any]:
    """Collect real sample positions for the three techniques."""
    scale = ctx.scale
    total_ops = scale.benchmark_ops

    # Sample positions are observed through the session event bus — the
    # same stream the CLI's --progress mode watches — rather than by
    # reaching into technique internals.
    smarts_offsets: List[int] = []
    smarts_bus = EventBus()
    smarts_bus.subscribe(
        SampleTaken, lambda e: smarts_offsets.append(e.op_offset)
    )
    smarts_cfg = SmartsConfig.from_scale(scale)
    Smarts(smarts_cfg, ctx.machine).collect_samples(
        ctx.program(benchmark), bus=smarts_bus
    )

    sp_cfg = SimPointConfig(scale.simpoint_intervals[-1], 5)
    trace = ctx.trace(benchmark)
    simpoint = SimPoint(sp_cfg, ctx.machine)
    sp_result = simpoint.run(ctx.program(benchmark), trace=trace)
    intervals = trace.to_period(sp_cfg.interval_ops)
    cum = [0]
    for ops in intervals.ops:
        cum.append(cum[-1] + int(ops))
    _clustering, reps = simpoint.simulation_points(intervals)
    sp_spans = [(cum[r], cum[r + 1]) for r in reps if r >= 0]

    pgss_offsets: List[int] = []
    pgss_bus = EventBus()
    pgss_bus.subscribe(SampleTaken, lambda e: pgss_offsets.append(e.op_offset))
    Pgss(PgssConfig.from_scale(scale), ctx.machine).run(
        ctx.program(benchmark), bus=pgss_bus
    )

    phase_line, legend = _phase_line(ctx, benchmark, total_ops)
    return {
        "benchmark": benchmark,
        "total_ops": total_ops,
        "phase_line": phase_line,
        "legend": legend,
        "smarts_offsets": smarts_offsets,
        "simpoint_spans": sp_spans,
        "pgss_offsets": pgss_offsets,
        "n_smarts": len(smarts_offsets),
        "n_simpoint": len(sp_spans),
        "n_pgss": len(pgss_offsets),
        "simpoint_error_pct": sp_result.percent_error(trace.true_ipc),
    }


def format_result(result: Dict[str, Any]) -> str:
    """The Fig.-1 timelines, aligned over the program's phase script."""
    total = result["total_ops"]
    lines: List[str] = [
        f"Figure 1 — detailed-sampling timelines, {result['benchmark']} "
        f"({total:,} ops across {TIMELINE_COLS} columns)",
        "",
        f"phases   {result['phase_line']}",
        f"SMARTS   {_mark_positions(result['smarts_offsets'], total)}"
        f"  ({result['n_smarts']} samples)",
        f"SimPoint {_mark_intervals(result['simpoint_spans'], total)}"
        f"  ({result['n_simpoint']} intervals)",
        f"PGSS     {_mark_positions(result['pgss_offsets'], total)}"
        f"  ({result['n_pgss']} samples)",
        "",
        "legend: " + ", ".join(f"{k}={v}" for k, v in result["legend"].items()),
    ]
    return "\n".join(lines)
