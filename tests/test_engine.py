"""Tests for the simulation engine: modes, accounting, checkpoints."""

import pytest

from repro import (
    BbvTracker,
    ConfigurationError,
    Mode,
    SimulationEngine,
    SimulationError,
)
from repro.cpu.engine import ModeAccounting

from scalar_reference import registers


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
        vec1 = registers(tracker).copy()
        engine.run(Mode.FUNC_FAST, 10_000)
        engine.restore(snap)
        assert (registers(tracker) == vec1).all()

    def test_livepoint_acceleration(self, two_phase_program):
        """Snapshots let samples be measured out of order, each in a fresh
        engine, with identical results (the TurboSMARTS/livepoint
        future-work feature)."""
        engine = SimulationEngine(two_phase_program)
        snapshots = []
        for _ in range(2):
            engine.run(Mode.FUNC_WARM, 40_000)
            snapshots.append(engine.snapshot())

        def measure(snap):
            fresh = SimulationEngine(two_phase_program)
            fresh.restore(snap)
            return fresh.run(Mode.DETAIL, 1_000).cycles

        sequential = [measure(snap) for snap in snapshots]
        reordered = [measure(snap) for snap in reversed(snapshots)]
        assert sequential == list(reversed(reordered))


class _EventOnlyStream:
    """A stream with ``next_event`` but no ``next_events``."""

    def __init__(self, stream):
        self.next_event = stream.next_event
        self.exhausted = False
        self.ops_emitted = 0


class _RecordOnlyTracker:
    """A tracker with a one-event ``record`` but no ``record_batch``."""

    total_ops = 0

    def record(self, block, taken, k=0):
        self.total_ops += block.n_ops


def _spy_batches(stream):
    """Wrap *stream*'s ``next_events``; returns the list of budgets asked."""
    calls = []
    next_events = stream.next_events

    def spy(max_ops):
        calls.append(max_ops)
        return next_events(max_ops)

    stream.next_events = spy
    return calls


class TestBatchedDispatch:
    def test_every_mode_takes_next_events(self, two_phase_program):
        """With or without a tracker, each run() is one next_events batch."""
        for tracker in (None, BbvTracker()):
            engine = SimulationEngine(two_phase_program, signal_tracker=tracker)
            calls = _spy_batches(engine.stream)
            for mode in Mode:
                assert engine.run(mode, 5_000).ops >= 5_000
            assert calls == [5_000] * len(Mode)

    def test_batched_true_requires_capable_stream(self, two_phase_program):
        """Every engine is batched, so a stream without next_events is
        rejected at construction."""
        from repro import ProgramStream

        stream = _EventOnlyStream(ProgramStream(two_phase_program))
        with pytest.raises(ConfigurationError, match="next_events"):
            SimulationEngine(two_phase_program, stream=stream)

    def test_tracker_without_record_batch_is_rejected(self, two_phase_program):
        with pytest.raises(ConfigurationError, match="record_batch"):
            SimulationEngine(two_phase_program, signal_tracker=_RecordOnlyTracker())

    def test_trace_stream_is_batched(self, two_phase_program):
        """A replayed trace goes through next_events like the live stream
        and leaves the same tracker state."""
        from repro.program.trace_io import record_trace

        trace = record_trace(two_phase_program, max_ops=20_000)
        replay = trace.as_stream(two_phase_program)
        tracker = BbvTracker()
        engine = SimulationEngine(two_phase_program, stream=replay, signal_tracker=tracker)
        batches = _spy_batches(replay)
        run = engine.run(Mode.FUNC_FAST, 10_000)
        assert run.ops >= 10_000
        assert batches == [10_000]

        live_tracker = BbvTracker()
        live = SimulationEngine(two_phase_program, signal_tracker=live_tracker)
        live.run(Mode.FUNC_FAST, 10_000)
        assert registers(tracker).tolist() == registers(live_tracker).tolist()

    def test_batched_func_fast_touches_nothing(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        engine.run(Mode.FUNC_FAST, 30_000)
        assert engine.hierarchy.l1d.stats.accesses == 0
        assert engine.predictor.stats.predictions == 0
