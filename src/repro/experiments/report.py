"""Full-reproduction report: every figure, one text document.

``pgss-sim report`` runs (or loads from cache) all nine reproduced figures
and assembles their tables into a single report — the machine-generated
counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import importlib
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import OrchestrationError
from .runner import ExperimentContext

__all__ = ["FIGURE_MODULES", "generate_report", "resolve_figure_ids"]

#: Figure number -> experiments module name, in presentation order.
FIGURE_MODULES = (
    ("1", "fig01_timeline"),
    ("2", "fig02_sampling_granularity"),
    ("3", "fig03_ipc_distribution"),
    ("6/7", "fig07_change_distribution"),
    ("8", "fig08_detection_rate"),
    ("9", "fig09_false_positives"),
    ("10", "fig10_twolf_threshold"),
    ("11", "fig11_pgss_sweep"),
    ("12", "fig12_technique_comparison"),
    ("13", "fig13_simulation_time"),
    ("ext-stratification", "stratification_gain"),
    ("ext-tradeoff", "tradeoff"),
    ("ext-signals", "signal_ablation"),
)


def resolve_figure_ids(
    figures: Union[str, Sequence[str], None],
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Map user figure ids to ``(numbers, module_names)``.

    Accepts a comma-separated string (``"2,12,ext-tradeoff"``) or a
    sequence of ids; ``None`` means "all figures" and maps to
    ``(None, None)``.  ``"6"`` and ``"7"`` both name the combined
    Figure 6/7 module.  Unknown ids raise
    :class:`~repro.errors.OrchestrationError`.
    """
    if figures is None:
        return None, None
    if isinstance(figures, str):
        wanted = [item.strip() for item in figures.split(",") if item.strip()]
    else:
        wanted = [str(item) for item in figures]
    if not wanted:
        return None, None
    aliases = {number: module for number, module in FIGURE_MODULES}
    aliases["6"] = aliases["7"] = aliases["6/7"]
    unknown = sorted(set(wanted) - set(aliases))
    if unknown:
        raise OrchestrationError(
            f"unknown figure id(s): {', '.join(unknown)} "
            f"(choose from {', '.join(n for n, _ in FIGURE_MODULES)})"
        )
    numbers: List[str] = []
    modules: List[str] = []
    for item in wanted:
        module = aliases[item]
        number = next(n for n, m in FIGURE_MODULES if m == module)
        if module not in modules:
            modules.append(module)
            numbers.append(number)
    return numbers, modules


def generate_report(
    ctx: ExperimentContext, figures: Optional[List[str]] = None
) -> str:
    """Run the selected figures (default: all) and return the report text.

    This is the figure-assembly path; user code should reach it through
    :meth:`repro.fleet.QueueService.fetch`, which runs the cells
    first so every figure reads a warm cache.

    Args:
        ctx: experiment context (results come from its cache when warm).
        figures: figure numbers to include (e.g. ``["2", "12"]``).
    """
    wanted = set(figures) if figures else None
    sections = [
        "PGSS-Sim reproduction report",
        f"scale: {ctx.scale.name} "
        f"({ctx.scale.benchmark_ops:,} ops/benchmark, "
        f"{len(ctx.benchmarks)} benchmarks)",
        "=" * 72,
    ]
    for number, module_name in FIGURE_MODULES:
        if wanted is not None and number not in wanted:
            continue
        module = importlib.import_module(
            f".{module_name}", "repro.experiments"
        )
        result = module.run(ctx)
        sections.append(module.format_result(result))
        sections.append("-" * 72)
    return "\n\n".join(sections)
