"""Tests for the distributed experiment fleet (`repro.fleet`).

Covers the filesystem job queue (claim semantics, priorities, leases,
retries, cancellation, sweeping), the worker loop, the context
document's JSON round trip, the `QueueService` facade and its
`LocalService` subclass, the fleet-vs-serial byte-identity guarantee, worker death
with checkpointed resume, and the `jobs`/`worker` CLI wiring.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.config import Scale
from repro.errors import FleetError
from repro.experiments import ExperimentContext, ResultCache, trace_cell
from repro.fleet import JobHandle, JobQueue, LocalService, QueueService, Worker

BENCHMARKS = ["164.gzip", "300.twolf"]


def make_ctx(cache_dir):
    return ExperimentContext(
        Scale.QUICK, cache_dir=cache_dir, benchmarks=BENCHMARKS
    )


def make_queue(tmp_path, **kwargs):
    return JobQueue(tmp_path / "queue", **kwargs)


def context_doc(cache_dir):
    return make_ctx(cache_dir).to_doc()


def submit_traces(queue, cache_dir, benchmarks=BENCHMARKS, **kwargs):
    cells = [trace_cell(b) for b in benchmarks]
    return queue.submit(cells, context_doc(cache_dir), **kwargs)


class TestSpecRoundTrip:
    def test_doc_survives_json_and_rebuilds_equal_configs(self, tmp_path):
        ctx = make_ctx(tmp_path / "cache")
        doc = json.loads(json.dumps(ctx.to_doc()))
        rebuilt = ExperimentContext.from_doc(doc, tmp_path / "ckpt", 4)
        assert rebuilt.scale == ctx.scale
        assert rebuilt.machine == ctx.machine
        assert rebuilt.benchmarks == BENCHMARKS
        assert str(ctx.cache.directory) == doc["cache_dir"]
        assert rebuilt.cache.directory == ctx.cache.directory
        assert rebuilt.checkpoint_dir == tmp_path / "ckpt"
        assert rebuilt.checkpoint_windows == 4


class TestJobQueue:
    def test_submit_and_claim(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache")
        assert queue.jobs() == [job]
        task = queue.claim_next("w1")
        assert task is not None
        assert task.job_id == job
        assert task.cell.benchmark == BENCHMARKS[0]
        assert task.attempts == 1

    def test_empty_submit_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(FleetError):
            queue.submit([], context_doc(tmp_path / "cache"))

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        submit_traces(queue, tmp_path / "cache", job_id="jobx")
        with pytest.raises(FleetError):
            submit_traces(queue, tmp_path / "cache", job_id="jobx")

    def test_claimed_task_is_not_reclaimable(self, tmp_path):
        queue = make_queue(tmp_path)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        assert queue.claim_next("w1") is not None
        assert queue.claim_next("w2") is None

    def test_priority_orders_claims(self, tmp_path):
        queue = make_queue(tmp_path)
        submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], priority=10
        )
        submit_traces(
            queue, tmp_path / "cache", benchmarks=["300.twolf"], priority=90
        )
        first = queue.claim_next("w")
        second = queue.claim_next("w")
        assert first.cell.benchmark == "300.twolf"
        assert second.cell.benchmark == "164.gzip"

    def test_bad_priority_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(FleetError):
            submit_traces(queue, tmp_path / "cache", priority=100)

    def test_complete_retires_task(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        task = queue.claim_next("w1")
        task.complete({"seconds": 0.5})
        state = queue.status(job)
        assert state.state == "done"
        assert state.counts["ok"] == 1
        assert queue.drained()
        [outcome] = queue.outcomes(job)
        assert outcome["status"] == "ok"
        assert outcome["worker"] == "w1"

    def test_fail_within_budget_requeues_with_attempt_charged(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=1
        )
        task = queue.claim_next("w1")
        task.fail({"error": "boom"})
        assert queue.status(job).counts["pending"] == 1
        retry = queue.claim_next("w2")
        assert retry.attempts == 2
        retry.fail({"error": "boom again"})
        state = queue.status(job)
        assert state.state == "failed"
        assert "boom again" in list(state.failures.values())[0]

    def test_expired_lease_is_reaped_and_task_requeued(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=0.05)
        job = submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=1
        )
        task = queue.claim_next("w1")
        assert task is not None
        time.sleep(0.08)  # let w1's lease expire without heartbeats
        successor = queue.claim_next("w2")
        assert successor is not None
        assert successor.attempts == 2
        assert successor.worker == "w2"
        assert queue.status(job).counts["running"] == 1

    def test_expired_lease_out_of_budget_finalises_failed(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=0.05)
        job = submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=0
        )
        queue.claim_next("w1")
        time.sleep(0.08)
        assert queue.claim_next("w2") is None
        state = queue.status(job)
        assert state.state == "failed"
        assert "lease expired" in list(state.failures.values())[0]

    def test_claim_still_being_written_is_not_reaped(self, tmp_path):
        """A claim file exists but holds no document yet: its holder is
        between creating and writing it.  Another worker's scan must not
        reap it as torn and take the task."""
        queue = make_queue(tmp_path)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        [task_path] = (queue.root / "tasks").glob("*.json")
        claim = queue.root / "claims" / task_path.name
        claim.touch()
        assert queue.claim_next("w2") is None
        assert claim.exists()
        # Left behind by a writer that died, it expires like a lease.
        stamp = time.time() - 2 * queue.lease_s
        os.utime(claim, (stamp, stamp))
        assert queue.claim_next("w2") is not None

    def test_task_finished_before_claim_is_not_run_again(
        self, tmp_path, monkeypatch
    ):
        """w2 scans the task while it is unclaimed; before w2 claims it,
        w1 claims, runs and finalises it.  w2 then wins the (released)
        claim, and must drop it rather than re-create and rerun the task."""
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        other = JobQueue(queue.root)
        try_claim = queue._try_claim

        def finish_then_claim(name, worker, attempt):
            other.claim_next("w1").complete({"seconds": 0.1})
            return try_claim(name, worker, attempt)

        monkeypatch.setattr(queue, "_try_claim", finish_then_claim)
        assert queue.claim_next("w2") is None
        assert list((queue.root / "tasks").glob("*.json")) == []
        assert queue.active_claims() == 0
        [outcome] = queue.outcomes(job)
        assert (outcome["worker"], outcome["attempts"]) == ("w1", 1)
        assert queue.status(job).state == "done"

    def test_attempt_failed_before_claim_is_counted(self, tmp_path, monkeypatch):
        """w2 scans the task at attempt 0; before w2 claims it, w1 claims
        and fails it within budget.  w2's claim must run attempt 2."""
        queue = make_queue(tmp_path)
        submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=1
        )
        other = JobQueue(queue.root)
        try_claim = queue._try_claim

        def fail_then_claim(name, worker, attempt):
            other.claim_next("w1").fail({"error": "boom"})
            return try_claim(name, worker, attempt)

        monkeypatch.setattr(queue, "_try_claim", fail_then_claim)
        task = queue.claim_next("w2")
        claim = json.loads(
            (queue.root / "claims" / f"{task.name}.json").read_text()
        )
        assert (task.attempts, claim["attempt"]) == (2, 2)

    def test_claim_and_complete_leave_the_task_file_untouched(self, tmp_path):
        """The attempt lives in the claim: a claim that completes its cell
        never rewrites the task file, it only removes it at the end."""
        queue = make_queue(tmp_path)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        [task_path] = (queue.root / "tasks").glob("*.json")
        before = task_path.stat()
        task = queue.claim_next("w1")
        claim = json.loads((queue.root / "claims" / task_path.name).read_text())
        assert (task.attempts, claim["attempt"]) == (1, 1)
        task.heartbeat()
        after = task_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino,
            before.st_mtime_ns,
        )
        task.complete({"seconds": 0.1})
        assert not task_path.exists()

    def test_reaped_dead_lease_uses_up_its_attempt(self, tmp_path):
        """A same-host holder whose pid is gone is reaped before its lease
        expires, and the attempt it held still counts against the budget."""
        queue = make_queue(tmp_path, lease_s=60.0)
        job = submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=1
        )
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()

        def die(task):
            claim_path = queue.root / "claims" / f"{task.name}.json"
            doc = json.loads(claim_path.read_text())
            claim_path.write_text(json.dumps(dict(doc, pid=dead.pid)))

        die(queue.claim_next("w1"))
        successor = queue.claim_next("w2")
        assert successor is not None and successor.attempts == 2
        die(successor)
        assert queue.claim_next("w3") is None
        state = queue.status(job)
        assert state.state == "failed"
        [outcome] = queue.outcomes(job)
        assert outcome["attempts"] == 2
        assert "lease expired after 2 attempt(s)" in outcome["error"]

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=0.1)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        task = queue.claim_next("w1")
        for _ in range(3):
            time.sleep(0.05)
            task.heartbeat()
        assert queue.claim_next("w2") is None  # lease still live

    def test_cancel_retires_pending_tasks(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache")
        assert queue.cancel(job) is True
        assert queue.cancel(job) is False
        assert queue.claim_next("w1") is None
        state = queue.status(job)
        assert state.state == "cancelled"
        assert state.counts["cancelled"] == 2

    def test_cancel_unknown_job_raises(self, tmp_path):
        with pytest.raises(FleetError):
            make_queue(tmp_path).cancel("nope")

    def test_status_unknown_job_raises(self, tmp_path):
        with pytest.raises(FleetError):
            make_queue(tmp_path).status("nope")


class TestQueueSweep:
    def test_sweep_reaps_stale_lease_and_counts_requeue(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=0.05)
        submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=1
        )
        queue.claim_next("w1")
        time.sleep(0.08)
        report = queue.sweep()
        assert report.stale_leases == 1
        assert report.requeued == 1
        assert report.failed == 0
        assert queue.pending_tasks() == 1

    def test_sweep_finalises_out_of_budget_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=0.05)
        job = submit_traces(
            queue, tmp_path / "cache", benchmarks=["164.gzip"], retries=0
        )
        queue.claim_next("w1")
        time.sleep(0.08)
        report = queue.sweep()
        assert report.stale_leases == 1
        assert report.failed == 1
        assert queue.status(job).state == "failed"

    def test_sweep_removes_tmp_litter_and_orphan_checkpoints(self, tmp_path):
        queue = make_queue(tmp_path)
        (queue.root / "tasks" / "stray.json.123.abc.tmp").write_text("x")
        orphan = queue.root / "checkpoints" / "00.dead.00000"
        orphan.mkdir(parents=True)
        (orphan / "trace.ckpt").write_bytes(b"x")
        report = queue.sweep()
        assert report.orphan_files == 1
        assert report.orphan_checkpoints == 1
        assert not orphan.exists()

    def test_sweep_keeps_live_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=60.0)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        queue.claim_next("w1")
        report = queue.sweep()
        assert report.stale_leases == 0
        assert queue.active_claims() == 1


class TestWorker:
    def test_drain_executes_all_cells_and_publishes_to_cache(self, tmp_path):
        queue = make_queue(tmp_path)
        cache_dir = tmp_path / "cache"
        job = submit_traces(queue, cache_dir)
        worker = Worker(queue, worker_id="w1", drain=True, poll_s=0.01)
        assert worker.run() == 2
        state = queue.status(job)
        assert state.state == "done"
        # Results live in the shared cache, not the queue.
        assert len(list(cache_dir.glob("*.npz"))) == 2
        # Finished tasks leave no claims, tasks, or checkpoints behind.
        assert queue.drained()
        assert list((queue.root / "checkpoints").iterdir()) == []

    def test_worker_writes_per_task_logs(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache")
        Worker(queue, worker_id="w1", drain=True, poll_s=0.01).run()
        manifest = queue.manifest(job)
        state = queue.status(job)
        assert len(state.logs) == len(manifest["tasks"])
        for name in manifest["tasks"]:
            log = queue.log_path(name)
            assert log.exists()
            text = log.read_text()
            assert "claim cell=" in text and "worker=w1" in text
            assert "finish cell=" in text and "status=ok" in text
            # The done-record carries the log path for post-mortems.
            done = json.loads(
                (queue.root / "done" / f"{name}.json").read_text()
            )
            assert done["log"] == str(log)
        assert set(state.logs.values()) == {
            str(queue.log_path(name)) for name in manifest["tasks"]
        }

    def test_max_cells_bounds_the_loop(self, tmp_path):
        queue = make_queue(tmp_path)
        submit_traces(queue, tmp_path / "cache")
        worker = Worker(queue, drain=True, max_cells=1, poll_s=0.01)
        assert worker.run() == 1
        assert queue.pending_tasks() == 1

    def test_two_workers_split_the_job(self, tmp_path):
        queue = make_queue(tmp_path)
        job = submit_traces(queue, tmp_path / "cache")
        workers = [
            Worker(queue, worker_id=f"w{i}", drain=True, poll_s=0.01)
            for i in range(2)
        ]
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert queue.status(job).state == "done"
        assert sum(w.executed for w in workers) == 2

    def test_fleet_cache_bytes_match_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        fleet_dir = tmp_path / "fleet"
        serial_ctx = make_ctx(serial_dir)
        for name in BENCHMARKS:
            serial_ctx.trace(name)
        queue = make_queue(tmp_path)
        submit_traces(queue, fleet_dir)
        Worker(queue, drain=True, poll_s=0.01).run()
        serial_files = sorted(p.name for p in serial_dir.glob("*.npz"))
        fleet_files = sorted(p.name for p in fleet_dir.glob("*.npz"))
        assert serial_files == fleet_files and serial_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                fleet_dir / name
            ).read_bytes()

    def test_dead_worker_leaves_checkpoint_successor_resumes(
        self, tmp_path, monkeypatch
    ):
        from repro.sampling import full as full_mod

        queue = make_queue(tmp_path, lease_s=0.05)
        cache_dir = tmp_path / "cache"
        job = submit_traces(
            queue, cache_dir, benchmarks=["164.gzip"], retries=1
        )

        original = full_mod.collect_reference_trace
        calls = {"n": 0}

        def dies_after_first_checkpoint(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                kwargs = dict(kwargs)
                real_ckpt = kwargs.get("checkpoint")

                class Dying(type(real_ckpt)):
                    def save(self, *a, **kw):
                        super().save(*a, **kw)
                        raise KeyboardInterrupt("simulated kill -9")

                kwargs["checkpoint"] = Dying(real_ckpt.path)
                return original(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            full_mod, "collect_reference_trace", dies_after_first_checkpoint
        )
        # The ExperimentContext.trace closure imported the symbol at module
        # load; patch it where it is looked up.
        from repro.experiments import runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "collect_reference_trace", dies_after_first_checkpoint
        )

        w1 = Worker(
            queue, worker_id="w1", drain=True, poll_s=0.01,
            checkpoint_windows=8,
        )
        with pytest.raises(KeyboardInterrupt):
            w1.run()
        # w1 "died" mid-cell: its checkpoint survives, its lease expires.
        task_ckpts = list((queue.root / "checkpoints").glob("*/*.ckpt"))
        assert len(task_ckpts) == 1
        time.sleep(0.08)

        w2 = Worker(
            queue, worker_id="w2", drain=True, poll_s=0.01,
            checkpoint_windows=8,
        )
        assert w2.run() == 1
        assert queue.status(job).state == "done"
        [outcome] = queue.outcomes(job)
        assert outcome["attempts"] == 2 and outcome["worker"] == "w2"

        # The resumed result is byte-identical to a serial computation.
        serial_dir = tmp_path / "serial"
        ExperimentContext(
            Scale.QUICK, cache_dir=serial_dir, benchmarks=["164.gzip"]
        ).trace("164.gzip")
        [serial_npz] = sorted(serial_dir.glob("*.npz"))
        fleet_npz = cache_dir / serial_npz.name
        assert fleet_npz.read_bytes() == serial_npz.read_bytes()


class TestLocalService:
    def test_submit_wait_fetch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        service = LocalService(make_ctx(tmp_path / "cache"))
        handle = service.submit(figures="2")
        assert service.status(handle).state == "pending"
        state = service.wait(handle)
        assert state.state == "done"
        text = service.fetch(handle)
        assert "Figure 2" in text
        assert "Figure 3" not in text

    def test_fetch_before_done_raises(self, tmp_path):
        service = LocalService(make_ctx(tmp_path / "cache"))
        handle = service.submit(figures="2")
        with pytest.raises(FleetError):
            service.fetch(handle)

    def test_cancel_pending_job(self, tmp_path):
        service = LocalService(make_ctx(tmp_path / "cache"))
        handle = service.submit(figures="2")
        assert service.cancel(handle) is True
        assert service.status(handle).state == "cancelled"
        assert service.cancel(handle) is False

    def test_unknown_handle_raises(self, tmp_path):
        service = LocalService(make_ctx(tmp_path / "cache"))
        with pytest.raises(FleetError):
            service.status(JobHandle("deadbeef"))

    def test_unknown_figure_rejected(self, tmp_path):
        from repro.errors import OrchestrationError

        service = LocalService(make_ctx(tmp_path / "cache"))
        with pytest.raises(OrchestrationError):
            service.submit(figures="99")


#: The figures of the CI ``run-all`` smoke.
SMOKE_FIGURES = "2,10,12,ext-signals"


@pytest.fixture(scope="module")
def smoke_cache(tmp_path_factory):
    """A cache warmed by a LocalService run of the smoke figures."""
    cache_dir = tmp_path_factory.mktemp("smoke") / "cache"
    service = LocalService(
        ExperimentContext(Scale.QUICK, cache_dir=cache_dir, benchmarks=["164.gzip"])
    )
    assert service.wait(service.submit(figures=SMOKE_FIGURES)).state == "done"
    return cache_dir


def smoke_ctx(cache_dir):
    return ExperimentContext(Scale.QUICK, cache_dir=cache_dir, benchmarks=["164.gzip"])


def count_engines(monkeypatch):
    """Count SimulationEngine constructions from now on."""
    from repro.cpu.engine import SimulationEngine

    built = []
    init = SimulationEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimulationEngine, "__init__", counting_init)
    return built


def cache_listing(directory):
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.iterdir()
    }


class TestLocalServiceSmoke:
    def test_fetch_simulates_nothing(self, smoke_cache, monkeypatch):
        """Every figure of a done job, ext-signals' detection table
        included, is assembled from cached cell results."""
        service = LocalService(smoke_ctx(smoke_cache))
        handle = service.submit(figures=SMOKE_FIGURES)
        assert service.wait(handle).state == "done"
        built = count_engines(monkeypatch)
        text = service.fetch(handle)
        assert "phase-signal ablation" in text
        assert built == []
        assert service.ctx.cache.misses == 0

    def test_fetch_simulates_nothing_for_the_tradeoff(self, tmp_path, monkeypatch):
        """The tradeoff grid is assembled from its technique cells alone."""
        service = LocalService(smoke_ctx(tmp_path / "cache"))
        handle = service.submit(figures="ext-tradeoff")
        assert service.wait(handle).state == "done"
        built = count_engines(monkeypatch)
        text = service.fetch(handle)
        assert "accuracy vs detailed-simulation budget" in text
        assert built == []
        assert service.ctx.cache.misses == 0

    def test_warm_rerun_computes_nothing(self, smoke_cache, monkeypatch):
        """Cells run on contexts rebuilt from the task's context
        document, so the caller's cache counters cannot see a warm
        recompute: check the cache listing and the engine count instead."""
        listing = cache_listing(smoke_cache)
        built = count_engines(monkeypatch)
        service = LocalService(smoke_ctx(smoke_cache))
        handle = service.submit(figures=SMOKE_FIGURES)
        assert service.wait(handle).state == "done"
        assert built == []
        assert cache_listing(smoke_cache) == listing

    def test_fig12_report_jobs1_equals_jobs2(self, smoke_cache, tmp_path):
        service = LocalService(smoke_ctx(tmp_path / "cache"), jobs=2)
        handle = service.submit(figures="12")
        assert service.wait(handle).state == "done"
        serial = LocalService(smoke_ctx(smoke_cache))
        serial_handle = serial.submit(figures="12")
        assert serial.wait(serial_handle).state == "done"
        assert service.fetch(handle) == serial.fetch(serial_handle)


class TestQueueService:
    def test_submit_worker_fetch_round_trip(self, tmp_path):
        ctx = make_ctx(tmp_path / "cache")
        service = QueueService(ctx, tmp_path / "queue")
        handle = service.submit(figures="2")
        assert service.status(handle).state == "pending"
        Worker(service.queue, drain=True, poll_s=0.01).run()
        state = service.wait(handle, timeout_s=1.0)
        assert state.state == "done"
        text = service.fetch(handle)
        assert "Figure 2" in text

    def test_fetch_from_fresh_process_via_manifest(self, tmp_path):
        ctx = make_ctx(tmp_path / "cache")
        submitter = QueueService(ctx, tmp_path / "queue")
        handle = submitter.submit(figures="2")
        Worker(submitter.queue, drain=True, poll_s=0.01).run()
        # A different process only knows the queue dir and the job id.
        fetcher = QueueService.from_queue(tmp_path / "queue", handle.job_id)
        assert fetcher.ctx.scale == ctx.scale
        assert fetcher.ctx.benchmarks == ctx.benchmarks
        text = fetcher.fetch(handle.job_id)
        assert "Figure 2" in text

    def test_cancel_through_service(self, tmp_path):
        service = QueueService(make_ctx(tmp_path / "cache"), tmp_path / "queue")
        handle = service.submit(figures="2")
        assert service.cancel(handle) is True
        assert service.wait(handle, timeout_s=1.0).state == "cancelled"

    def test_wait_timeout_returns_unfinished_state(self, tmp_path):
        service = QueueService(
            make_ctx(tmp_path / "cache"), tmp_path / "queue", poll_s=0.01
        )
        handle = service.submit(figures="2")
        state = service.wait(handle, timeout_s=0.05)
        assert state.state == "pending"


class TestFleetCli:
    def test_parser_jobs_submit(self):
        args = build_parser().parse_args(
            ["jobs", "submit", "--queue", "q", "--figures", "2,12"]
        )
        assert args.command == "jobs"
        assert args.jobs_command == "submit"
        assert args.figures == "2,12"
        assert args.priority == 50

    def test_parser_worker(self):
        args = build_parser().parse_args(
            ["worker", "--queue", "q", "--drain", "--max-cells", "3"]
        )
        assert args.command == "worker"
        assert args.drain and args.max_cells == 3

    def test_parser_jobs_requires_queue(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "submit"])

    def test_parser_run_all_queue_flag(self):
        args = build_parser().parse_args(["run-all", "--queue", "q"])
        assert args.queue == "q"

    def test_cli_submit_worker_status_fetch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue = str(tmp_path / "queue")
        assert main(
            ["--scale", "quick", "jobs", "submit", "--queue", queue,
             "--figures", "2"]
        ) == 0
        job = capsys.readouterr().out.strip().splitlines()[0]

        assert main(
            ["--scale", "quick", "worker", "--queue", queue, "--drain",
             "--quiet"]
        ) == 0
        capsys.readouterr()

        assert main(["jobs", "status", "--queue", queue, job]) == 0
        status_out = capsys.readouterr().out
        assert "done" in status_out
        assert "logs:" in status_out and "task log(s)" in status_out

        assert main(["jobs", "fetch", "--queue", queue, job]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_cli_fetch_unfinished_job_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue = str(tmp_path / "queue")
        main(["--scale", "quick", "jobs", "submit", "--queue", queue,
              "--figures", "2"])
        job = capsys.readouterr().out.strip().splitlines()[0]
        assert main(["jobs", "fetch", "--queue", queue, job]) == 2
        assert "not done" in capsys.readouterr().err

    def test_cli_cancel(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue = str(tmp_path / "queue")
        main(["--scale", "quick", "jobs", "submit", "--queue", queue,
              "--figures", "2"])
        job = capsys.readouterr().out.strip().splitlines()[0]
        assert main(["jobs", "cancel", "--queue", queue, job]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_cli_clear_cache_sweeps_queue(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue_dir = tmp_path / "queue"
        queue = JobQueue(queue_dir, lease_s=0.05)
        submit_traces(queue, tmp_path / "cache", benchmarks=["164.gzip"])
        queue.claim_next("w1")
        time.sleep(0.08)
        assert main(["clear-cache", "--queue", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 stale leases reclaimed" in out

    def test_cli_clear_cache_sweep_only_keeps_entries(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        cache = ResultCache(cache_dir)
        cache.json({"kind": "x"}, lambda: {"v": 1})
        (cache_dir / "dead.json.tmp").write_text("x")
        assert main(["clear-cache", "--sweep"]) == 0
        out = capsys.readouterr().out
        assert "1 tmp files removed" in out
        assert len(list(cache_dir.glob("*.json"))) == 1
