"""Engine-checkpoint persistence and resumable reference-trace collection.

Covers the on-disk :class:`CheckpointFile` (round trip, corruption,
idempotent clear), the property the fleet depends on: a trace
collection killed mid-cell and resumed from its checkpoint is
byte-identical to an uninterrupted run, and an engine rewound to its own
earlier snapshot going on exactly as a fresh engine restored there.
"""

import pickle

import numpy as np
import pytest

from repro.config import Scale
from repro.cpu import Mode, SimulationEngine
from repro.cpu.checkpoints import CheckpointFile
from repro.program import get_workload
from repro.sampling.full import collect_reference_trace

BENCH = "164.gzip"


def make_engine():
    return SimulationEngine(get_workload(BENCH, Scale.QUICK))


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
    """A checkpoint file whose writer is 'killed' after *allowed* saves."""

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


def _go_on(engine):
    """FUNC_WARM, then the detailed modes: the ``ModeRun``s and the ops
    each mode's accounting gained."""
    before = dict(engine.accounting.ops)
    runs = [
        engine.run(Mode.FUNC_WARM, 30_000),
        engine.run(Mode.DETAIL, 4_000),
        engine.run(Mode.DETAIL_WARM, 1_000),
        engine.run(Mode.DETAIL, 3_000),
    ]
    return runs, {mode: engine.accounting.ops[mode] - before[mode] for mode in Mode}


class TestRewind:
    @pytest.mark.parametrize("bench", (BENCH, "adv.footprint_step"))
    def test_rewound_engine_matches_fresh_restore(self, bench):
        """Snapshot at op X, run FUNC_WARM and DETAIL on to op Y, restore
        X into the same engine: it goes on as a fresh engine restored at
        X does, although its warmer's address windows were last filled
        past Y."""
        program = get_workload(bench, Scale.QUICK)
        rewound = SimulationEngine(program)
        rewound.run(Mode.FUNC_WARM, 40_000)
        rewound.run(Mode.DETAIL, 2_000)
        state = pickle.loads(pickle.dumps(rewound.snapshot()))
        rewound.run(Mode.FUNC_WARM, 60_000)
        rewound.run(Mode.DETAIL, 5_000)
        rewound.restore(state)
        fresh = SimulationEngine(program)
        fresh.restore(state)

        assert _go_on(rewound) == _go_on(fresh)
        for level in ("l1i", "l1d", "l2"):
            ours = getattr(rewound.hierarchy, level)
            theirs = getattr(fresh.hierarchy, level)
            assert ours.snapshot() == theirs.snapshot()
            assert ours.hot_refs()[:2] == theirs.hot_refs()[:2]
        assert rewound.predictor.snapshot() == fresh.predictor.snapshot()
        assert rewound.pipeline.cycle == fresh.pipeline.cycle
        assert rewound.pipeline.timing_snapshot() == fresh.pipeline.timing_snapshot()
