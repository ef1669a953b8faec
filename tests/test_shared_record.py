"""Tests for the outcome record a worker shares between technique cells.

A worker keeps one complete record of the benchmark it last simulated
(``RecordSlot``), and every technique that ``replays_outcomes`` replays
it instead of warming the program again.  The contract is that nobody
can tell: each cache entry is the bytes a direct ``.run(program)``
writes, in any cell order, and a record whose build was cut short is
never handed out.
"""

import random
import weakref

import pytest

from repro import Scale
from repro.config import DEFAULT_MACHINE
from repro.experiments import runner
from repro.experiments.cells import TECHNIQUE_FIGURE, cell_technique, enumerate_cells
from repro.experiments.runner import ExperimentContext, RecordSlot
from repro.fleet import JobQueue, Worker
from repro.program import get_workload
from repro.sampling.session import ModeSegment

#: The figures whose technique cells the record is shared across.
FIGURES = (
    "fig02_sampling_granularity",
    "fig10_twolf_threshold",
    "fig11_pgss_sweep",
    "fig12_technique_comparison",
    "signal_ablation",
    "tradeoff",
)

#: A regular benchmark and an adversarial one whose footprint steps
#: through the L2.
BENCHMARKS = ["164.gzip", "adv.footprint_step"]


def _context(cache_dir, records=None):
    return ExperimentContext(
        Scale.QUICK, cache_dir=cache_dir, benchmarks=BENCHMARKS, records=records
    )


def _technique_cells(tmp_path):
    ctx = _context(tmp_path / "enumerate")
    return [c for c in enumerate_cells(ctx, FIGURES) if c.figure == TECHNIQUE_FIGURE]


def _drain(tmp_path, name, cells):
    """Run *cells*, in this order, through one worker; its cache dir."""
    cache_dir = tmp_path / name
    queue = JobQueue(tmp_path / f"{name}-queue")
    queue.submit(cells, _context(cache_dir).to_doc())
    worker = Worker(queue, drain=True, poll_s=0.01, timeout_s=None)
    assert worker.run() == len(cells)
    return cache_dir


def _entries(cache_dir):
    return {path.name: path.read_bytes() for path in sorted(cache_dir.glob("*.json"))}


class TestWorkerCells:
    def test_entries_equal_direct_runs_in_any_order(self, tmp_path):
        cells = _technique_cells(tmp_path)
        techniques = [cell_technique(c, DEFAULT_MACHINE) for c in cells]
        assert {c.benchmark for c in cells} == set(BENCHMARKS)
        # Cold SMARTS (the tradeoff's cold fast-forward arm) is among
        # them: its skips leave the caches cold, so it must not replay.
        assert any(
            t.name == "SMARTS" and not t.config.functional_warming for t in techniques
        )
        assert any(t.replays_outcomes for t in techniques)

        in_order = _entries(_drain(tmp_path, "in-order", cells))
        shuffled = list(cells)
        random.Random(3).shuffle(shuffled)
        assert _entries(_drain(tmp_path, "shuffled", shuffled)) == in_order

        direct = _context(tmp_path / "direct")
        for cell, technique in zip(cells, techniques):
            direct.run_cached(cell.benchmark, technique)
        assert _entries(tmp_path / "direct") == in_order
        assert len(in_order) == len(cells)

    def test_cells_share_one_record_per_benchmark(self, tmp_path, monkeypatch):
        built = []

        class Counted(runner.OutcomeRecord):
            def __init__(self, program, machine):
                built.append(program.name)
                super().__init__(program, machine)

        monkeypatch.setattr(runner, "OutcomeRecord", Counted)
        _drain(tmp_path, "cache", _technique_cells(tmp_path))
        # Technique cells are enumerated benchmark by benchmark.
        assert built == BENCHMARKS


class TestRecordSlot:
    def test_interrupted_build_is_never_reused(self, monkeypatch):
        built = []

        class Tracked(runner.OutcomeRecord):
            def __init__(self, program, machine):
                super().__init__(program, machine)
                built.append(self)

        def cut_short(mode):
            yield ModeSegment(mode, 20_000)
            raise KeyboardInterrupt("the cell's time budget ran out")

        monkeypatch.setattr(runner, "OutcomeRecord", Tracked)
        slot = RecordSlot()
        program = get_workload("164.gzip", Scale.QUICK)
        with monkeypatch.context() as patch:
            patch.setattr(runner, "run_to_end_plan", cut_short)
            with pytest.raises(KeyboardInterrupt):
                slot.get(program, DEFAULT_MACHINE)
        assert len(built) == 1 and not built[0].engine.exhausted

        record = slot.get(program, DEFAULT_MACHINE)
        assert record is built[1]
        assert record.engine.exhausted
        assert record.ops == record.engine.ops_completed
        assert slot.get(get_workload("164.gzip", Scale.QUICK), DEFAULT_MACHINE) is record

    def test_old_record_is_dropped_before_the_next_is_built(self, monkeypatch):
        slot = RecordSlot()
        old = weakref.ref(slot.get(get_workload("164.gzip", Scale.QUICK), DEFAULT_MACHINE))
        alive_at_build = []

        class Checked(runner.OutcomeRecord):
            def __init__(self, program, machine):
                alive_at_build.append(old() is not None)
                super().__init__(program, machine)

        monkeypatch.setattr(runner, "OutcomeRecord", Checked)
        record = slot.get(get_workload("300.twolf", Scale.QUICK), DEFAULT_MACHINE)
        assert alive_at_build == [False]
        assert record.program.name == "300.twolf"
