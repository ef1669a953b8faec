"""Tests for the cell executor, local workers and the concurrency-safe cache.

Covers the cache's atomic publication, duplicate-work suppression,
corruption quarantine, and strict keying; cell enumeration and
deduplication; timeouts, retries and worker death on the local
backend (:class:`~repro.fleet.LocalService`, a private job queue
drained by local workers); the byte-identity of ``--jobs 1`` vs
``--jobs N`` figure results; and the ``run-all`` CLI wiring.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import Scale
from repro.errors import CacheError, OrchestrationError, SamplingError
from repro.experiments import (
    ExperimentCell,
    ExperimentContext,
    ResultCache,
    enumerate_cells,
    parallel,
    trace_cell,
)
from repro.experiments import fig11_pgss_sweep, fig12_technique_comparison, tradeoff
from repro.experiments.cells import (
    TECHNIQUE_FIGURE,
    TRACE_FIGURE,
    cell_technique,
    run_cell,
    technique_cell,
)
from repro.fleet import LocalService
from repro.sampling.full import ReferenceTrace

PAYLOAD = {"kind": "stress", "k": 1}

EQUALITY_FIGURES = ["fig02_sampling_granularity", "fig07_change_distribution"]


def _make_ctx(cache_dir):
    return ExperimentContext(
        Scale.QUICK,
        cache_dir=cache_dir,
        benchmarks=["164.gzip", "300.twolf"],
    )


def _race_writer(cache_dir, out_dir, idx):
    """One racing process: compute-or-hit the shared key, record both."""
    cache = ResultCache(cache_dir)

    def compute():
        (out_dir / f"compute.{idx}").write_text("computed")
        return {"value": 42, "blob": list(range(64)), "writer_pool": True}

    result = cache.json(PAYLOAD, compute)
    (out_dir / f"result.{idx}.json").write_text(
        json.dumps(result, sort_keys=True)
    )


def _sleepy_runner(ctx, cell):
    time.sleep(30)


def _flaky_runner(ctx, cell):
    """Fails the first attempt of each cell, succeeds afterwards."""
    marker = ctx.cache.directory / f"attempted.{cell.benchmark}"
    if not marker.exists():
        marker.write_text("first attempt")
        raise SamplingError("transient fault, please retry")


def _noop_runner(ctx, cell):
    return None


def _run_local(ctx, cells, **kwargs):
    """submit + wait on a LocalService; the final state and done-records."""
    service = LocalService(ctx, **kwargs)
    handle = service.submit(cells=cells)
    state = service.wait(handle)
    return state, service.queue.outcomes(handle.job_id)


class TestCacheConcurrency:
    def test_multiprocess_writers_race_one_key(self, tmp_path):
        """N processes racing one key: all observe identical bytes."""
        cache_dir = tmp_path / "cache"
        out_dir = tmp_path / "out"
        cache_dir.mkdir()
        out_dir.mkdir()
        mp = multiprocessing.get_context("fork")
        procs = [
            mp.Process(target=_race_writer, args=(cache_dir, out_dir, i))
            for i in range(6)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        results = {
            path.read_text() for path in sorted(out_dir.glob("result.*.json"))
        }
        assert len(results) == 1  # every process saw the same bytes
        computes = list(out_dir.glob("compute.*"))
        assert len(computes) >= 1
        # The published entry is complete, valid JSON.
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        assert json.loads(entries[0].read_text())["value"] == 42
        # No tmp or claim litter survives the race.
        assert not list(cache_dir.glob("*.tmp"))
        assert not list(cache_dir.glob("*.claim"))

    def test_waiter_reuses_peer_result(self, tmp_path):
        """A reader that loses the claim race waits instead of recomputing."""
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)
        claimed = threading.Event()
        release = threading.Event()

        def slow_compute():
            claimed.set()
            assert release.wait(timeout=30)
            return {"value": "from-first"}

        def never_compute():
            raise AssertionError("waiter must not recompute")

        holder = threading.Thread(
            target=lambda: first.json({"k": "slow"}, slow_compute)
        )
        holder.start()
        assert claimed.wait(timeout=30)
        # First holds the claim now; let it publish shortly after the
        # second reader has started waiting on it.
        threading.Timer(0.2, release.set).start()
        result = second.json({"k": "slow"}, never_compute)
        holder.join(timeout=30)
        assert result == {"value": "from-first"}
        assert second.races == 1
        assert second.hits == 1 and second.misses == 0

    def test_stale_claim_is_stolen(self, tmp_path):
        """A claim left by a dead process does not block readers."""
        cache = ResultCache(tmp_path)
        key = cache.key({"k": "stale"})
        claim = tmp_path / f"{key}.json.claim"
        claim.write_text("999999999")  # no such pid
        result = cache.json({"k": "stale"}, lambda: {"v": 1})
        assert result == {"v": 1}
        assert cache.races == 1 and cache.misses == 1
        assert not claim.exists()


class TestCacheCorruption:
    def test_corrupt_json_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.json({"k": 1}, lambda: {"v": "original"})
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json at all")
        fresh = ResultCache(tmp_path)
        result = fresh.json({"k": 1}, lambda: {"v": "recomputed"})
        assert result == {"v": "recomputed"}
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert list(tmp_path.glob("*.corrupt"))
        # The recomputed entry replaces the quarantined one durably.
        assert ResultCache(tmp_path).json(
            {"k": 1}, lambda: {"v": "never"}
        ) == {"v": "recomputed"}

    def test_non_object_json_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.json({"k": 1}, lambda: {"v": 1})
        next(tmp_path.glob("*.json")).write_text('["valid", "but", "a", "list"]')
        fresh = ResultCache(tmp_path)
        assert fresh.json({"k": 1}, lambda: {"v": 2}) == {"v": 2}
        assert fresh.corrupt == 1

    def test_truncated_trace_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = ReferenceTrace(
            "tiny",
            100,
            np.array([100, 100]),
            np.array([200, 150]),
            np.zeros((2, 32)),
        )
        cache.trace({"k": "t"}, lambda: trace)
        entry = next(tmp_path.glob("*.npz"))
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        fresh = ResultCache(tmp_path)
        recovered = fresh.trace({"k": "t"}, lambda: trace)
        assert recovered.true_ipc == trace.true_ipc
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert list(tmp_path.glob("*.corrupt"))


def _tiny_trace(cycles=(200, 150)):
    return ReferenceTrace(
        "tiny", 100, np.array([100, 100]), np.array(cycles), np.zeros((2, 32))
    )


class TestTraceMemo:
    """``ResultCache.trace`` keeps the traces of one directory in memory."""

    def test_fresh_cache_on_same_directory_returns_same_object(self, tmp_path):
        first = ResultCache(tmp_path).trace({"k": "t"}, _tiny_trace)
        fresh = ResultCache(tmp_path)
        again = fresh.trace({"k": "t"}, lambda: pytest.fail("recomputed"))
        assert again is first
        assert fresh.stats() == {"hits": 1, "misses": 0, "races": 0, "corrupt": 0}

    def test_trace_arrays_are_read_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        computed = cache.trace({"k": "t"}, _tiny_trace)
        for array in (computed.ops, computed.cycles, computed.bbvs):
            with pytest.raises(ValueError):
                array[0] = 0
        # A trace loaded from disk (not the memo) is read-only too: a new
        # mtime makes the memo entry stale.
        entry = next(tmp_path.glob("*.npz"))
        mtime_ns = entry.stat().st_mtime_ns
        os.utime(entry, ns=(mtime_ns, mtime_ns + 10**9))
        loaded = ResultCache(tmp_path).trace({"k": "t"}, _tiny_trace)
        assert loaded is not computed
        with pytest.raises(ValueError):
            loaded.cycles[0] = 0

    def test_republished_entry_is_reloaded(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.trace({"k": "t"}, _tiny_trace)
        entry = next(tmp_path.glob("*.npz"))
        staged = tmp_path / "staged.bin"
        _tiny_trace(cycles=(400, 400)).save(staged)
        os.replace(staged, entry)
        fresh = ResultCache(tmp_path)
        reloaded = fresh.trace({"k": "t"}, lambda: pytest.fail("recomputed"))
        assert reloaded is not first
        assert reloaded.total_cycles == 800
        assert fresh.hits == 1 and fresh.misses == 0

    def test_clear_forces_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.trace({"k": "t"}, _tiny_trace)
        assert cache.clear() == 1
        again = cache.trace({"k": "t"}, _tiny_trace)
        assert again is not first
        assert cache.misses == 2 and cache.hits == 0

    def test_switching_directory_empties_memo(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        first = ResultCache(a).trace({"k": "t"}, _tiny_trace)
        ResultCache(b).trace({"k": "t"}, _tiny_trace)
        # Back on the first directory the entry is read from disk again.
        back = ResultCache(a)
        again = back.trace({"k": "t"}, lambda: pytest.fail("recomputed"))
        assert again is not first
        assert again.true_ipc == first.true_ipc
        assert back.hits == 1


class TestCacheHygiene:
    def test_clear_sweeps_working_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.json({"k": 1}, lambda: {})
        (tmp_path / "deadbeef.json.123.abcd1234.tmp").write_text("torn")
        (tmp_path / "deadbeef.json.claim").write_text("42")
        (tmp_path / "deadbeef.json.corrupt").write_text("bad")
        (tmp_path / "unrelated.txt").write_text("keep me")
        assert cache.clear() == 4
        assert (tmp_path / "unrelated.txt").exists()
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.claim"))
        assert not list(tmp_path.glob("*.corrupt"))

    def test_key_rejects_unserializable_payload(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CacheError):
            cache.key({"bad": object()})
        with pytest.raises(CacheError):
            cache.key({"bad": {1, 2, 3}})

    def test_key_rejects_unserializable_nested_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CacheError):
            cache.json({"cfg": {"rng": np.random.default_rng(0)}}, lambda: {})


class TestCells:
    def test_cell_identity_and_seed_are_stable(self):
        a = ExperimentCell.make("fig11_pgss_sweep", "164.gzip", period=4000, threshold_pi=0.05)
        b = ExperimentCell.make("fig11_pgss_sweep", "164.gzip", threshold_pi=0.05, period=4000)
        assert a == b
        assert a.cell_id == "fig11_pgss_sweep/164.gzip[period=4000,threshold_pi=0.05]"
        assert a.seed == b.seed
        assert a.seed != trace_cell("164.gzip").seed

    def test_enumerate_cells_dedupes_shared_traces(self, tmp_path):
        ctx = _make_ctx(tmp_path)
        cells = enumerate_cells(ctx, figures=EQUALITY_FIGURES)
        assert len(cells) == len(set(cells))
        traces = [c for c in cells if c.figure == TRACE_FIGURE]
        # fig02 warms one benchmark, fig07 warms both; the shared trace
        # cell must appear exactly once.
        assert len(traces) == len({c.benchmark for c in traces})

    def test_enumerate_cells_covers_all_figures(self, tmp_path):
        ctx = _make_ctx(tmp_path)
        cells = enumerate_cells(ctx)
        # Technique runs of every figure share one cell kind; the two
        # module-hook kinds are the payloads that are not technique runs.
        assert {c.figure for c in cells} == {
            TRACE_FIGURE,
            TECHNIQUE_FIGURE,
            "signal_ablation",
            "fig13_simulation_time",
        }
        names = {c.kwargs()["technique"] for c in cells if c.figure == TECHNIQUE_FIGURE}
        assert names == {
            "FullDetail",
            "SMARTS",
            "TurboSMARTS",
            "SimPoint",
            "OnlineSimPoint",
            "PGSS",
            "Stratified",
            "RankedSet",
        }

    def test_unknown_cell_params_raise(self, tmp_path):
        from repro.experiments.cells import run_cell as run_one

        ctx = _make_ctx(tmp_path)
        bad = ExperimentCell.make(
            TECHNIQUE_FIGURE, "164.gzip", technique="nonesuch", config="{}"
        )
        with pytest.raises(OrchestrationError):
            run_one(ctx, bad)

    def test_technique_cells_rebuild_the_figures_techniques(self, tmp_path, monkeypatch):
        """Every technique cell rebuilds the object its figure built: same
        class, name, config and machine, so ``run_cached`` reads and
        writes the entry the figure's ``run()`` reads."""
        ctx = ExperimentContext(Scale.QUICK, cache_dir=tmp_path)
        built = [
            fig11_pgss_sweep._pgss(ctx, period, threshold)
            for period, threshold in fig11_pgss_sweep._grid(ctx)
        ]
        built += [t for row in fig12_technique_comparison._techniques(ctx).values() for t in row]
        built += [t for points in tradeoff._curves(ctx).values() for _, t in points]
        by_cell = {technique_cell(b, t): t for t in built for b in ctx.benchmarks}
        cells = [c for c in enumerate_cells(ctx) if c.figure == TECHNIQUE_FIGURE]
        assert set(cells) == set(by_cell)

        payloads = []
        monkeypatch.setattr(
            ctx.cache, "json", lambda payload, compute: payloads.append(payload)
        )
        for cell in cells:
            figure_built = by_cell[cell]
            rebuilt = cell_technique(cell, ctx.machine)
            assert type(rebuilt) is type(figure_built)
            assert rebuilt.name == figure_built.name
            assert rebuilt.config == figure_built.config
            ctx.run_cached(cell.benchmark, rebuilt)
            ctx.run_cached(cell.benchmark, figure_built)
            assert payloads[-2] == payloads[-1]

    def test_full_enumeration_names_each_run_once(self, tmp_path, monkeypatch):
        ctx = ExperimentContext(Scale.QUICK, cache_dir=tmp_path)
        cells = enumerate_cells(ctx)
        assert len(cells) == 580
        runs = [
            (c.benchmark, c.kwargs()["technique"], c.kwargs()["config"])
            for c in cells
            if c.figure == TECHNIQUE_FIGURE
        ]
        assert len(runs) == len(set(runs))
        # Distinct cells are distinct cache entries too.
        payloads = []
        monkeypatch.setattr(
            ctx.cache, "json", lambda payload, compute: payloads.append(payload)
        )
        for cell in cells:
            if cell.figure == TECHNIQUE_FIGURE:
                run_cell(ctx, cell)
        keys = {ctx.cache.key(p) for p in payloads}
        assert len(keys) == len(runs)


class TestLocalWorkers:
    def test_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(OrchestrationError):
            LocalService(_make_ctx(tmp_path), jobs=0)

    def test_jobs1_runs_cells_in_process_in_order(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(
            parallel, "run_cell", lambda ctx, cell: ran.append((os.getpid(), cell))
        )
        ctx = _make_ctx(tmp_path)
        cells = [trace_cell(b) for b in ctx.benchmarks]
        state, outcomes = _run_local(ctx, cells, jobs=1)
        assert state.state == "done"
        assert ran == [(os.getpid(), cell) for cell in cells]
        assert [o["attempts"] for o in outcomes] == [1] * len(cells)

    def test_timeout_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "run_cell", _sleepy_runner)
        state, [outcome] = _run_local(
            _make_ctx(tmp_path),
            [trace_cell("164.gzip")],
            jobs=1,
            timeout_s=1.0,
            retries=0,
        )
        assert state.state == "failed"
        assert outcome["status"] == "failed"
        assert "budget" in outcome["error"]

    def test_retry_recovers_transient_fault(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "run_cell", _flaky_runner)
        ctx = _make_ctx(tmp_path)
        cells = [trace_cell(b) for b in ctx.benchmarks]
        state, outcomes = _run_local(ctx, cells, jobs=2, retries=1)
        assert state.state == "done"
        assert [o["attempts"] for o in outcomes] == [2, 2]

    def test_retries_exhausted_reports_error(self, tmp_path, monkeypatch):
        def always_fails(ctx, cell):
            raise SamplingError("permanent fault")

        monkeypatch.setattr(parallel, "run_cell", always_fails)
        state, [outcome] = _run_local(
            _make_ctx(tmp_path), [trace_cell("164.gzip")], jobs=1, retries=1
        )
        assert state.state == "failed"
        assert outcome["attempts"] == 2
        assert "permanent fault" in state.failures[trace_cell("164.gzip").cell_id]

    def test_killed_worker_lease_is_reaped_and_cell_retried(
        self, tmp_path, monkeypatch
    ):
        """A local worker process dies mid-cell: the caller's worker reaps
        its lease by the dead-pid check and reruns the cell, and wait()
        returns instead of hanging on the lease."""
        parent = os.getpid()
        died = tmp_path / "died"

        def killer(ctx, cell):
            if os.getpid() != parent:
                if not died.exists():
                    died.write_text(cell.cell_id)
                    os.kill(os.getpid(), signal.SIGKILL)
                return
            # The caller's worker holds its first cell until the forked
            # worker has claimed the other one and died.
            deadline = time.monotonic() + 30
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

        monkeypatch.setattr(parallel, "run_cell", killer)
        ctx = _make_ctx(tmp_path)
        cells = [trace_cell(b) for b in ctx.benchmarks]
        state, outcomes = _run_local(ctx, cells, jobs=2, retries=1)
        assert died.exists()
        assert state.state == "done"
        by_cell = {o["cell_id"]: o["attempts"] for o in outcomes}
        assert by_cell.pop(died.read_text()) == 2
        assert list(by_cell.values()) == [1]

    def test_progress_lines_emitted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "run_cell", _noop_runner)
        ctx = _make_ctx(tmp_path)
        lines = []
        cells = [trace_cell(b) for b in ctx.benchmarks]
        _run_local(ctx, cells, jobs=1, progress=lines.append)
        assert len(lines) == 2 * len(cells)
        assert f"claimed {cells[0].cell_id} (attempt 1/2)" in lines[0]
        assert lines[-1].endswith(f"finished {cells[-1].cell_id}: ok (0.0s)")


class TestWorkerAlarmHygiene:
    def test_execute_cell_restores_sigalrm_handler(self, tmp_path, monkeypatch):
        """Regression: _execute_cell leaked _on_alarm into the host when
        run in-process, turning any later host alarm into a _CellTimeout."""

        def sentinel(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("sentinel alarm fired")

        monkeypatch.setattr(parallel, "run_cell", _noop_runner)
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            record = parallel._execute_cell(
                _make_ctx(tmp_path).to_doc(),
                trace_cell("164.gzip"),
                5.0,
            )
            assert record["status"] == "ok"
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.alarm(0) == 0  # no alarm left pending
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_execute_cell_restores_handler_on_error(self, tmp_path, monkeypatch):
        def sentinel(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("sentinel alarm fired")

        def failing_runner(ctx, cell):
            raise SamplingError("boom")

        monkeypatch.setattr(parallel, "run_cell", failing_runner)
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            record = parallel._execute_cell(
                _make_ctx(tmp_path).to_doc(),
                trace_cell("164.gzip"),
                5.0,
            )
            assert record["status"] == "error"
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.alarm(0) == 0
        finally:
            signal.signal(signal.SIGALRM, previous)


class TestParallelEquality:
    def test_jobs1_and_jobs2_results_byte_identical(self, tmp_path):
        """The acceptance property: any job count, identical figure bytes."""
        serial_ctx = _make_ctx(tmp_path / "serial")
        parallel_ctx = _make_ctx(tmp_path / "parallel")

        for ctx, jobs in ((serial_ctx, 1), (parallel_ctx, 2)):
            state, _ = _run_local(
                ctx, enumerate_cells(ctx, figures=EQUALITY_FIGURES), jobs=jobs
            )
            assert state.state == "done"

        import repro.experiments.fig02_sampling_granularity as fig02
        import repro.experiments.fig07_change_distribution as fig07

        for module in (fig02, fig07):
            a = json.dumps(module.run(serial_ctx), sort_keys=True)
            b = json.dumps(module.run(parallel_ctx), sort_keys=True)
            assert a == b
        # Figure assembly after the fan-out reads pure cache hits.
        assert serial_ctx.cache.stats()["misses"] == 0
        assert parallel_ctx.cache.stats()["misses"] == 0


class TestRunAllCli:
    def test_parser_accepts_run_all(self):
        args = build_parser().parse_args(
            ["--scale", "quick", "run-all", "--jobs", "3", "--figures", "2,10"]
        )
        assert args.command == "run-all"
        assert args.jobs == 3
        assert args.figures == "2,10"

    def test_run_all_unknown_figure_fails_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--scale", "quick", "run-all", "--figures", "99"])
        assert code == 2
        assert "unknown figure id" in capsys.readouterr().err

    def test_run_all_quick_figure_parallel(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["--scale", "quick", "run-all", "--figures", "2", "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 2" in captured.out
        assert "cache:" in captured.err

    def test_run_all_writes_report_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "report.txt"
        code = main(
            [
                "--scale",
                "quick",
                "run-all",
                "--figures",
                "2",
                "--quiet",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "Figure 2" in out.read_text()
