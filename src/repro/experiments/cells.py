"""Experiment cells: the unit of work the experiment service schedules.

A *cell* is one independent, deterministic, cacheable computation — a
(figure, benchmark, parameters) triple.  Figure modules enumerate their
cells via a module-level ``cells(ctx)`` hook.  A cell is one of three
kinds:

* a *trace cell* (:func:`trace_cell`) warms a benchmark's reference
  trace;
* a *technique cell* (:func:`technique_cell`) is one
  ``ctx.run_cached(benchmark, technique)``, named by the technique's
  ``name`` and its config as canonical JSON; :func:`run_cell` rebuilds
  the technique from the cell, so every figure that runs techniques
  shares one dispatcher and identical runs deduplicate across figures;
* any other cell is executed by its figure module's own
  ``run_cell(ctx, benchmark, params)`` hook, for payloads that are not
  technique runs.

The figure ``run()`` functions are built on the same per-cell units, so
they read exactly the cache entries the cells wrote.

Cells publish exclusively through the concurrency-safe
:class:`~repro.experiments.cache.ResultCache`; running a cell returns
nothing of interest to the worker.  That is what makes the fan-out
trivially correct: workers only *warm the cache*, and the figure
assembly afterwards is always the same serial code reading pure hits.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, get_type_hints

from ..config import MachineConfig
from ..errors import OrchestrationError
from ..sampling import (
    FullDetail,
    OnlineSimPoint,
    Pgss,
    RankedSetSampling,
    SamplingTechnique,
    SimPoint,
    Smarts,
    TurboSmarts,
    TwoPhaseStratified,
)
from .runner import ExperimentContext

__all__ = [
    "ExperimentCell",
    "TRACE_FIGURE",
    "TECHNIQUE_FIGURE",
    "trace_cell",
    "technique_cell",
    "cell_technique",
    "run_cell",
    "enumerate_cells",
]

#: Pseudo-figure naming the reference-trace warming cells every offline
#: analysis shares; keeping one canonical spelling lets the enumerator
#: deduplicate them across figure modules.
TRACE_FIGURE = "trace"

#: Pseudo-figure naming the technique-run cells; like trace cells, one
#: spelling per run lets the enumerator deduplicate them across figures.
TECHNIQUE_FIGURE = "technique"

#: Every sampling technique a technique cell can name, by ``name``.
_TECHNIQUES: Dict[str, Type[SamplingTechnique]] = {
    cls.name: cls
    for cls in (
        FullDetail,
        Smarts,
        TurboSmarts,
        SimPoint,
        OnlineSimPoint,
        Pgss,
        TwoPhaseStratified,
        RankedSetSampling,
    )
}


@dataclass(frozen=True)
class ExperimentCell:
    """One independent, cacheable (figure, benchmark, params) work unit.

    Attributes:
        figure: experiments module basename (e.g. ``fig11_pgss_sweep``),
            or :data:`TRACE_FIGURE` for reference-trace warming.
        benchmark: workload name the cell operates on.
        params: sorted ``(name, value)`` pairs configuring the cell;
            kept as a tuple so cells are hashable and picklable.
    """

    figure: str
    benchmark: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(figure: str, benchmark: str, **params: Any) -> "ExperimentCell":
        """Build a cell with keyword parameters (sorted for stability)."""
        return ExperimentCell(figure, benchmark, tuple(sorted(params.items())))

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, e.g. ``fig11/164.gzip[period=4000]``."""
        kv = ",".join(f"{k}={v}" for k, v in self.params)
        suffix = f"[{kv}]" if kv else ""
        return f"{self.figure}/{self.benchmark}{suffix}"

    @property
    def seed(self) -> int:
        """Deterministic per-cell seed derived from the cell identity.

        Every current cell is already a pure function of its configured
        seeds, but stochastic units (e.g. replicated-sampling studies)
        should draw their randomness from this value so results stay
        independent of scheduling order and worker assignment.
        """
        digest = hashlib.sha256(self.cell_id.encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def kwargs(self) -> Dict[str, Any]:
        """The parameters as a plain dict."""
        return dict(self.params)


def trace_cell(benchmark: str) -> ExperimentCell:
    """The cell that warms *benchmark*'s cached reference trace."""
    return ExperimentCell(TRACE_FIGURE, benchmark)


def technique_cell(benchmark: str, technique: SamplingTechnique) -> ExperimentCell:
    """The cell that runs *technique* on *benchmark* (cached).

    Its params are ``technique.name`` and the config as canonical JSON
    (``{}`` for the config-less :class:`~repro.sampling.FullDetail`);
    the machine is the executing context's.
    """
    config = technique.config
    return ExperimentCell.make(
        TECHNIQUE_FIGURE,
        benchmark,
        technique=technique.name,
        config=json.dumps(asdict(config) if config is not None else {}, sort_keys=True),
    )


def cell_technique(cell: ExperimentCell, machine: MachineConfig) -> SamplingTechnique:
    """Rebuild the technique a :func:`technique_cell` names, on *machine*.

    Raises:
        OrchestrationError: the cell names no known technique.
    """
    params = cell.kwargs()
    cls = _TECHNIQUES.get(params.get("technique", ""))
    if cls is None:
        raise OrchestrationError(f"unknown technique cell {cell.cell_id}")
    if cls is FullDetail:
        return FullDetail(machine)
    config_cls = _hints(cls)["config"]
    return cls(_from_doc(config_cls, json.loads(params["config"])), machine)


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    """*cls*'s resolved annotations (``get_type_hints`` evaluates every
    annotation string of the MRO, which costs more than the cell's
    cache hit)."""
    return get_type_hints(cls)


def _from_doc(cls: Any, doc: Dict[str, Any]) -> Any:
    """The config dataclass *cls* whose ``asdict`` is *doc*."""
    hints = _hints(cls)
    return cls(
        **{
            name: _from_doc(hints[name], value) if is_dataclass(hints[name]) else value
            for name, value in doc.items()
        }
    )


def run_cell(ctx: ExperimentContext, cell: ExperimentCell) -> Any:
    """Execute one cell against *ctx* — the same on every worker.

    The only observable effect is cache warming; the return value exists
    for in-process callers and is never shipped between processes.
    """
    if cell.figure == TRACE_FIGURE:
        return ctx.trace(cell.benchmark)
    if cell.figure == TECHNIQUE_FIGURE:
        return ctx.run_cached(cell.benchmark, cell_technique(cell, ctx.machine))
    module = importlib.import_module(f".{cell.figure}", __package__)
    runner = getattr(module, "run_cell", None)
    if runner is None:
        raise OrchestrationError(
            f"figure module {cell.figure!r} does not define run_cell()"
        )
    return runner(ctx, cell.benchmark, cell.kwargs())


def enumerate_cells(
    ctx: ExperimentContext, figures: Optional[Sequence[str]] = None
) -> List[ExperimentCell]:
    """All cells of the selected figure modules, deduplicated in order.

    The technique cells then take their places in benchmark order (each
    benchmark's cells in their own order), because a worker keeps one
    outcome record between its cells, of the benchmark it last ran
    (:class:`~repro.experiments.runner.RecordSlot`): benchmark by
    benchmark, it warms each program once instead of once per cell.

    Args:
        ctx: experiment context (supplies the benchmark list and scale).
        figures: experiments module basenames; defaults to every module
            in the report's presentation order.
    """
    if figures is None:
        from .report import FIGURE_MODULES

        figures = [module for _, module in FIGURE_MODULES]
    seen = set()
    out: List[ExperimentCell] = []
    for name in figures:
        module = importlib.import_module(f".{name}", __package__)
        cells_fn = getattr(module, "cells", None)
        if cells_fn is None:
            continue
        for cell in cells_fn(ctx):
            if cell not in seen:
                seen.add(cell)
                out.append(cell)
    slots = [i for i, cell in enumerate(out) if cell.figure == TECHNIQUE_FIGURE]
    first: Dict[str, int] = {}
    for i in slots:
        first.setdefault(out[i].benchmark, i)
    grouped = sorted((out[i] for i in slots), key=lambda cell: first[cell.benchmark])
    for i, cell in zip(slots, grouped):
        out[i] = cell
    return out
