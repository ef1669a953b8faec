"""Experiment harness: one module per reproduced figure.

The paper's evaluation consists of Figures 2-13 (there are no numbered
tables).  Each ``figNN_*`` module exposes:

* ``run(ctx)`` — compute the figure's data, returning a plain dict;
* ``format_result(result)`` — render the same rows/series the paper
  reports, as text;
* ``cells(ctx)`` — the figure's independent cacheable work units, for
  the experiment service: trace cells, technique cells (one cached
  technique run each, shared by every figure), and, where a unit is
  neither, cells the module runs through its own ``run_cell`` hook.

All experiments share an :class:`ExperimentContext`, which owns the scale
configuration and an on-disk result cache (reference traces are expensive;
one full-detail pass per benchmark powers many figures).  The cache is
safe for concurrent writers, so independent cells can be fanned out over
worker processes: :class:`repro.fleet.LocalService` drains them with
local workers (``pgss-sim run-all --jobs N``) and
:class:`repro.fleet.QueueService` with fleet workers, both through the
one cell executor in :mod:`repro.experiments.parallel`.
"""

from .cache import ResultCache
from .cells import ExperimentCell, enumerate_cells, run_cell, trace_cell
from .runner import ExperimentContext

__all__ = [
    "ExperimentContext",
    "ResultCache",
    "ExperimentCell",
    "enumerate_cells",
    "run_cell",
    "trace_cell",
]
