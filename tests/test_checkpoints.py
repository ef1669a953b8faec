"""Checkpoint persistence and resumable reference-trace collection.

Covers the :class:`CheckpointStore` edge cases (empty store, exact-offset
hit, offset before the first checkpoint), the on-disk
:class:`CheckpointFile` (round trip, corruption, idempotent clear), and
the property the fleet depends on: a trace collection killed mid-cell and
resumed from its checkpoint is byte-identical to an uninterrupted run.
"""

import pickle

import numpy as np
import pytest

from repro.config import Scale
from repro.cpu import Mode, SimulationEngine
from repro.cpu.checkpoints import CheckpointFile, CheckpointStore
from repro.errors import SimulationError
from repro.program import get_workload
from repro.sampling.full import collect_reference_trace

BENCH = "164.gzip"


def make_engine():
    return SimulationEngine(get_workload(BENCH, Scale.QUICK))


class TestCheckpointStoreEdges:
    def test_empty_store_raises(self):
        engine = make_engine()
        with pytest.raises(SimulationError):
            CheckpointStore().restore_nearest(engine, 1_000_000)

    def test_offset_before_first_checkpoint_raises(self):
        engine = make_engine()
        engine.run(Mode.FUNC_FAST, 50_000)
        store = CheckpointStore()
        first = store.add(engine)
        assert first.op_offset > 0
        fresh = make_engine()
        with pytest.raises(SimulationError):
            store.restore_nearest(fresh, first.op_offset - 1)

    def test_exact_offset_hit(self):
        engine = make_engine()
        store = CheckpointStore.collect(engine, interval_ops=40_000)
        target = store.offsets[1]
        fresh = make_engine()
        used = store.restore_nearest(fresh, target)
        assert used.op_offset == target
        assert fresh.ops_completed == target

    def test_between_offsets_picks_floor(self):
        engine = make_engine()
        store = CheckpointStore.collect(engine, interval_ops=40_000)
        lo, hi = store.offsets[1], store.offsets[2]
        fresh = make_engine()
        used = store.restore_nearest(fresh, (lo + hi) // 2)
        assert used.op_offset == lo


class TestCheckpointFile:
    def test_load_absent_returns_none(self, tmp_path):
        assert CheckpointFile(tmp_path / "missing.ckpt").load() is None

    def test_round_trip(self, tmp_path):
        ck = CheckpointFile(tmp_path / "cell.ckpt")
        ck.save(1234, {"stream": "s"}, extras={"ops": [1, 2]})
        payload = ck.load()
        assert payload["op_offset"] == 1234
        assert payload["state"] == {"stream": "s"}
        assert payload["extras"] == {"ops": [1, 2]}

    def test_save_replaces_prior(self, tmp_path):
        ck = CheckpointFile(tmp_path / "cell.ckpt")
        ck.save(1, {"a": 1})
        ck.save(2, {"a": 2})
        assert ck.load()["op_offset"] == 2

    def test_corrupt_file_is_cleared_and_treated_as_absent(self, tmp_path):
        path = tmp_path / "cell.ckpt"
        path.write_bytes(b"not a pickle at all")
        ck = CheckpointFile(path)
        assert ck.load() is None
        assert not path.exists()

    def test_wrong_shape_payload_is_cleared(self, tmp_path):
        path = tmp_path / "cell.ckpt"
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert CheckpointFile(path).load() is None
        assert not path.exists()

    def test_clear_is_idempotent(self, tmp_path):
        ck = CheckpointFile(tmp_path / "cell.ckpt")
        ck.clear()
        ck.save(1, {})
        ck.clear()
        ck.clear()
        assert ck.load() is None

    def test_payload_of_earlier_format_is_cleared(self, tmp_path):
        """A checkpoint written before engine states carried the pipeline
        timing cannot resume byte-identically: it means a cold start."""
        path = tmp_path / "cell.ckpt"
        state = make_engine().snapshot()
        del state["pipeline_timing"]
        path.write_bytes(
            pickle.dumps({"op_offset": 0, "state": state, "extras": {}})
        )
        assert CheckpointFile(path).load() is None
        assert not path.exists()

    def test_no_tmp_litter_after_save(self, tmp_path):
        ck = CheckpointFile(tmp_path / "cell.ckpt")
        ck.save(7, {"x": 1})
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


class _DyingCheckpoint(CheckpointFile):
    """Checkpoint file whose writer is 'killed' after *allowed* saves."""

    def __init__(self, path, allowed):
        super().__init__(path)
        self.allowed = allowed
        self.saves = 0

    def save(self, op_offset, state, extras=None):
        super().save(op_offset, state, extras)
        self.saves += 1
        if self.saves >= self.allowed:
            raise KeyboardInterrupt("simulated worker death")


class TestResumableTrace:
    WINDOW = 5_000

    def reference(self):
        return collect_reference_trace(
            get_workload(BENCH, Scale.QUICK), self.WINDOW
        )

    def test_kill_then_resume_is_byte_identical(self, tmp_path):
        path = tmp_path / "trace.ckpt"
        dying = _DyingCheckpoint(path, allowed=2)
        with pytest.raises(KeyboardInterrupt):
            collect_reference_trace(
                get_workload(BENCH, Scale.QUICK),
                self.WINDOW,
                checkpoint=dying,
                checkpoint_windows=8,
            )
        # The dead worker left a mid-cell snapshot behind.
        saved = CheckpointFile(path).load()
        assert saved is not None
        assert 0 < saved["op_offset"] < self.reference().total_ops
        assert len(saved["extras"]["ops"]) == 16

        resumed = collect_reference_trace(
            get_workload(BENCH, Scale.QUICK),
            self.WINDOW,
            checkpoint=CheckpointFile(path),
            checkpoint_windows=8,
        )
        uninterrupted = self.reference()
        assert np.array_equal(resumed.ops, uninterrupted.ops)
        assert np.array_equal(resumed.cycles, uninterrupted.cycles)
        assert np.array_equal(resumed.bbvs, uninterrupted.bbvs)
        # Completion clears the checkpoint.
        assert not path.exists()

    def test_resume_restores_pipeline_timing(self, tmp_path):
        """300.twolf resumed after window 37: the snapshot must carry the
        scoreboard, FU, fetch-stall, issue-slot and MSHR state, or the
        first resumed window starts from an empty pipeline and its cycle
        count differs from the uninterrupted run's."""
        window = Scale.QUICK.trace_window
        path = tmp_path / "trace.ckpt"
        with pytest.raises(KeyboardInterrupt):
            collect_reference_trace(
                get_workload("300.twolf", Scale.QUICK),
                window,
                checkpoint=_DyingCheckpoint(path, allowed=1),
                checkpoint_windows=37,
            )
        resumed = collect_reference_trace(
            get_workload("300.twolf", Scale.QUICK),
            window,
            checkpoint=CheckpointFile(path),
            checkpoint_windows=37,
        )
        uninterrupted = collect_reference_trace(
            get_workload("300.twolf", Scale.QUICK), window
        )
        assert np.array_equal(resumed.cycles, uninterrupted.cycles)
        assert resumed.true_ipc == uninterrupted.true_ipc

    def test_uninterrupted_checkpointed_run_matches_plain(self, tmp_path):
        path = tmp_path / "trace.ckpt"
        checkpointed = collect_reference_trace(
            get_workload(BENCH, Scale.QUICK),
            self.WINDOW,
            checkpoint=CheckpointFile(path),
            checkpoint_windows=4,
        )
        plain = self.reference()
        assert np.array_equal(checkpointed.ops, plain.ops)
        assert np.array_equal(checkpointed.cycles, plain.cycles)
        assert np.array_equal(checkpointed.bbvs, plain.bbvs)
        assert not path.exists()

    def test_zero_checkpoint_windows_disables_saving(self, tmp_path):
        path = tmp_path / "trace.ckpt"
        collect_reference_trace(
            get_workload(BENCH, Scale.QUICK),
            self.WINDOW,
            checkpoint=CheckpointFile(path),
            checkpoint_windows=0,
        )
        assert not path.exists()
