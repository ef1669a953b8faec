"""Tests for the simulation engine: modes, accounting, checkpoints."""

import pytest

from repro import (
    BbvTracker,
    ConfigurationError,
    Mode,
    SimulationEngine,
    SimulationError,
)
from repro.cpu import CheckpointStore
from repro.cpu.engine import ModeAccounting


class TestModes:
    def test_detail_produces_cycles(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        run = engine.run(Mode.DETAIL, 10_000)
        assert run.ops >= 10_000
        assert run.cycles > 0
        assert run.ipc > 0

    def test_functional_modes_produce_no_cycles(self, two_phase_program):
        for mode in (Mode.FUNC_WARM, Mode.FUNC_FAST):
            engine = SimulationEngine(two_phase_program)
            run = engine.run(mode, 10_000)
            assert run.ops >= 10_000
            assert run.cycles == 0
            assert run.ipc == 0.0

    def test_detail_warm_counts_as_detailed(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.DETAIL_WARM, 5_000)
        engine.run(Mode.FUNC_WARM, 5_000)
        assert engine.accounting.detailed_ops >= 5_000
        assert engine.accounting.detailed_ops < 10_000

    def test_mode_is_detailed_property(self):
        assert Mode.DETAIL.is_detailed
        assert Mode.DETAIL_WARM.is_detailed
        assert not Mode.FUNC_WARM.is_detailed
        assert not Mode.FUNC_FAST.is_detailed

    def test_run_to_end_exhausts(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        result = engine.run_to_end(Mode.FUNC_FAST)
        assert engine.exhausted
        assert result.ops == engine.ops_completed

    def test_run_after_exhaustion_is_empty(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run_to_end(Mode.FUNC_FAST)
        run = engine.run(Mode.DETAIL, 1000)
        assert run.ops == 0
        assert run.exhausted

    def test_negative_ops_rejected(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        with pytest.raises(SimulationError):
            engine.run(Mode.DETAIL, -1)

    def test_unknown_predictor_rejected(self, two_phase_program):
        with pytest.raises(ConfigurationError):
            SimulationEngine(two_phase_program, predictor="oracle")

    def test_bimodal_predictor_selectable(self, two_phase_program):
        engine = SimulationEngine(two_phase_program, predictor="bimodal")
        engine.run(Mode.DETAIL, 2000)
        assert engine.predictor.stats.predictions > 0


class TestWarmingEquivalence:
    def test_functional_warming_matches_detail_cache_state(
        self, two_phase_program
    ):
        """FUNC_WARM must leave caches and predictor in exactly the state
        DETAIL would — that is what makes SMARTS-style sampling sound."""
        e1 = SimulationEngine(two_phase_program)
        e2 = SimulationEngine(two_phase_program)
        e1.run(Mode.DETAIL, 30_000)
        e2.run(Mode.FUNC_WARM, 30_000)
        assert e1.hierarchy.snapshot() == e2.hierarchy.snapshot()
        assert e1.predictor.snapshot() == e2.predictor.snapshot()

    def test_func_fast_touches_nothing(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.FUNC_FAST, 30_000)
        assert engine.hierarchy.l1d.stats.accesses == 0
        assert engine.predictor.stats.predictions == 0

    def test_mixed_mode_ipc_close_to_pure_detail(self, two_phase_program):
        """Sampled detail windows after warming measure IPC close to the
        same windows inside a full-detail run."""
        full = SimulationEngine(two_phase_program)
        full_result = full.run_to_end(Mode.DETAIL)

        mixed = SimulationEngine(two_phase_program)
        detail_ops = 0
        detail_cycles = 0
        while not mixed.exhausted:
            mixed.run(Mode.FUNC_WARM, 3_000)
            run = mixed.run(Mode.DETAIL, 1_000)
            detail_ops += run.ops
            detail_cycles += run.cycles
        assert detail_cycles > 0
        sampled_ipc = detail_ops / detail_cycles
        assert sampled_ipc == pytest.approx(full_result.ipc, rel=0.25)


class TestBbvIntegration:
    def test_tracker_sees_all_modes(self, two_phase_program):
        tracker = BbvTracker()
        engine = SimulationEngine(two_phase_program, signal_tracker=tracker)
        engine.run(Mode.FUNC_FAST, 5_000)
        engine.run(Mode.FUNC_WARM, 5_000)
        engine.run(Mode.DETAIL, 5_000)
        assert tracker.total_ops == engine.ops_completed

    def test_no_tracker_by_default(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        assert engine.signal_tracker is None


class TestAccounting:
    def test_per_mode_ops(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.DETAIL, 3_000)
        engine.run(Mode.FUNC_WARM, 6_000)
        acc = engine.accounting
        assert acc.ops[Mode.DETAIL] >= 3_000
        assert acc.ops[Mode.FUNC_WARM] >= 6_000
        assert acc.total_ops == engine.ops_completed

    def test_time_recorded(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.DETAIL, 20_000)
        assert engine.accounting.seconds[Mode.DETAIL] > 0
        assert engine.accounting.rate(Mode.DETAIL) > 0

    def test_merge(self):
        a = ModeAccounting()
        b = ModeAccounting()
        a.ops[Mode.DETAIL] = 10
        b.ops[Mode.DETAIL] = 5
        b.seconds[Mode.DETAIL] = 1.0
        a.merge(b)
        assert a.ops[Mode.DETAIL] == 15
        assert a.seconds[Mode.DETAIL] == 1.0


class TestCheckpointing:
    def test_snapshot_restore_resumes_identically(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.FUNC_WARM, 40_000)
        snap = engine.snapshot()
        r1 = engine.run(Mode.DETAIL, 5_000)
        engine.restore(snap)
        r2 = engine.run(Mode.DETAIL, 5_000)
        assert r1.ops == r2.ops
        assert r1.cycles == r2.cycles

    def test_snapshot_includes_tracker(self, two_phase_program):
        tracker = BbvTracker()
        engine = SimulationEngine(two_phase_program, signal_tracker=tracker)
        engine.run(Mode.FUNC_FAST, 10_000)
        snap = engine.snapshot()
        assert "bbv" in snap
        vec1 = tracker.peek_vector().copy()
        engine.run(Mode.FUNC_FAST, 10_000)
        engine.restore(snap)
        assert (tracker.peek_vector() == vec1).all()

    def test_checkpoint_store_collect(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        store = CheckpointStore.collect(engine, interval_ops=30_000)
        assert len(store) >= 3
        assert store.offsets == sorted(store.offsets)

    def test_checkpoint_store_restore_nearest(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        store = CheckpointStore.collect(engine, interval_ops=30_000)
        target = store.offsets[2]
        cp = store.restore_nearest(engine, target + 10)
        assert cp.op_offset == target
        assert engine.ops_completed == target

    def test_checkpoint_store_rejects_unreachable(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        store = CheckpointStore()
        with pytest.raises(SimulationError):
            store.restore_nearest(engine, 100)

    def test_livepoint_acceleration(self, two_phase_program):
        """Checkpoints let samples be measured out of order with identical
        results (the TurboSMARTS/livepoint future-work feature)."""
        engine = SimulationEngine(two_phase_program)
        store = CheckpointStore.collect(engine, interval_ops=40_000)

        # Sequential reference: sample at each checkpoint offset.
        sequential = []
        for offset in store.offsets[1:3]:
            fresh = SimulationEngine(two_phase_program)
            store.restore_nearest(fresh, offset)
            sequential.append(fresh.run(Mode.DETAIL, 1_000).cycles)

        # Random order must reproduce the same measurements.
        reordered = []
        for offset in reversed(store.offsets[1:3]):
            fresh = SimulationEngine(two_phase_program)
            store.restore_nearest(fresh, offset)
            reordered.append(fresh.run(Mode.DETAIL, 1_000).cycles)
        assert sequential == list(reversed(reordered))


class TestBatchedDispatch:
    def test_auto_detect_uses_batched_path(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        assert engine.batched is None
        tracker = BbvTracker()
        assert engine._batching(tracker)
        assert engine._batching(None)

    def test_batched_false_forces_scalar(self, two_phase_program):
        engine = SimulationEngine(two_phase_program, batched=False)
        assert not engine._batching(None)
        run = engine.run(Mode.FUNC_FAST, 5_000)
        assert run.ops >= 5_000

    def test_batched_true_requires_capable_stream(self, two_phase_program):
        from repro.program.trace_io import record_trace

        trace = record_trace(two_phase_program, max_ops=20_000)
        replay = trace.as_stream(two_phase_program)
        with pytest.raises(ConfigurationError):
            SimulationEngine(two_phase_program, stream=replay, batched=True)

    def test_trace_stream_falls_back_to_scalar(self, two_phase_program):
        """A replayed trace has no next_events; the engine silently uses
        the scalar loop and still matches the live-stream result."""
        from repro.program.trace_io import record_trace

        trace = record_trace(two_phase_program, max_ops=20_000)
        replay = trace.as_stream(two_phase_program)
        tracker = BbvTracker()
        engine = SimulationEngine(two_phase_program, stream=replay, signal_tracker=tracker)
        assert not engine._batching(tracker)
        run = engine.run(Mode.FUNC_FAST, 10_000)
        assert run.ops >= 10_000

        live_tracker = BbvTracker()
        live = SimulationEngine(two_phase_program, signal_tracker=live_tracker)
        live.run(Mode.FUNC_FAST, 10_000)
        assert tracker.peek_vector().tolist() == live_tracker.peek_vector().tolist()

    def test_batched_func_fast_touches_nothing(self, two_phase_program):
        engine = SimulationEngine(two_phase_program, batched=True)
        engine.run(Mode.FUNC_FAST, 30_000)
        assert engine.hierarchy.l1d.stats.accesses == 0
        assert engine.predictor.stats.predictions == 0
