"""Tests for outcome records: one warming pass, replayed by measurements.

Replaying is exact because of one property, pinned first: the cache,
predictor and stream state at op X is the same whatever schedule of
FUNC_WARM, DETAIL_WARM and DETAIL brought the stream there.  The second
suite holds ``measure_intervals`` over a record to the live measurement
pass it replaced (``scalar_reference.live_measure_intervals``).
"""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BbvTracker, Scale
from repro.config import DEFAULT_MACHINE
from repro.cpu import Mode, OutcomeRecord, SimulationEngine
from repro.errors import ConfigurationError, SimulationError
from repro.program import ProgramStream, get_workload
from repro.sampling.session import measure_intervals

from scalar_reference import assert_same_machine, live_measure_intervals, stats_summary

#: A few QUICK programs: regular, many random branches, L1D-miss heavy,
#: and one whose footprint steps through the L2.
PROGRAMS = ("164.gzip", "300.twolf", "181.mcf", "adv.footprint_step")

#: The modes whose architectural pass is the warmer's.
WARM_MODES = (Mode.FUNC_WARM, Mode.DETAIL_WARM, Mode.DETAIL)

INTERVAL_OPS = Scale.QUICK.pgss_best_period


def _program(name):
    return get_workload(name, Scale.QUICK)


class TestStateIsAFunctionOfTheOp:
    @given(
        name=st.sampled_from(PROGRAMS),
        schedule=st.lists(
            st.tuples(
                st.sampled_from(WARM_MODES), st.integers(min_value=1, max_value=20_000)
            ),
            min_size=1,
            max_size=16,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_warm_schedule_equals_pure_func_warm(self, name, schedule):
        mixed = SimulationEngine(_program(name))
        for mode, ops in schedule:
            mixed.run(mode, ops)
        pure = SimulationEngine(_program(name))
        pure.run(Mode.FUNC_WARM, mixed.ops_completed)
        assert pure.ops_completed == mixed.ops_completed
        assert pure.stream.snapshot() == mixed.stream.snapshot()
        assert_same_machine(pure, mixed)


class TestReplayMatchesLive:
    @given(
        name=st.sampled_from(PROGRAMS),
        warmed=st.integers(min_value=0, max_value=200_000),
        passes=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
            min_size=1,
            max_size=2,
        ),
        sample=st.sampled_from([(0, INTERVAL_OPS), (3_000, 1_000), (500, 2_000)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_interval_ops_and_cycles(self, name, warmed, passes, sample):
        """Targets reach past what the record has warmed (the record must
        extend) and past the program's end (about 40 intervals); passes
        after the first share the record, as Stratified's stage 2 does."""
        warmup_ops, detail_ops = sample
        record = OutcomeRecord(_program(name), DEFAULT_MACHINE)
        if warmed:
            record.engine.run(Mode.FUNC_WARM, warmed)
        for targets in passes:
            replayed, accounting = measure_intervals(
                record, targets, INTERVAL_OPS, warmup_ops, detail_ops
            )
            live = live_measure_intervals(
                _program(name),
                DEFAULT_MACHINE,
                targets,
                INTERVAL_OPS,
                warmup_ops,
                detail_ops,
            )
            assert replayed == live
            assert accounting.ops[Mode.FUNC_WARM] == 0
            assert record.engine.accounting.ops[Mode.FUNC_FAST] == 0

    def test_record_warms_only_as_far_as_the_last_sample(self):
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        measured, _ = measure_intervals(record, [2, 5], INTERVAL_OPS, 500, 1_000)
        assert sorted(measured) == [2, 5]
        assert 5 * INTERVAL_OPS < record.ops < 6 * INTERVAL_OPS
        assert record.ops == record.engine.ops_completed


class TestEngineRoles:
    def test_replaying_engine_serves_func_warm_from_the_record(self):
        """FUNC_WARM on a replaying engine advances the stream and the
        tracker and accounts its ops as a live engine does, touches no
        cache or predictor state, and leaves the detailed replay after it
        equal to the live one; past the record's end, or on another
        stream, it raises."""
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        record.engine.run(Mode.FUNC_WARM, 60_000)
        hierarchy = record.engine.hierarchy.snapshot()
        counters = stats_summary(record.engine.hierarchy)
        live = SimulationEngine(_program("164.gzip"), signal_tracker=BbvTracker())
        replaying = SimulationEngine(
            _program("164.gzip"), signal_tracker=BbvTracker(), outcomes=record
        )
        cold = replaying.predictor.snapshot()
        assert replaying.run(Mode.FUNC_WARM, 40_000) == live.run(Mode.FUNC_WARM, 40_000)
        assert replaying.stream.snapshot() == live.stream.snapshot()
        assert replaying.accounting.ops == live.accounting.ops
        assert (
            replaying.signal_tracker.take_vector(normalize=False).tolist()
            == live.signal_tracker.take_vector(normalize=False).tolist()
        )
        assert record.engine.hierarchy.snapshot() == hierarchy
        assert stats_summary(record.engine.hierarchy) == counters
        assert replaying.predictor.snapshot() == cold
        assert replaying.run(Mode.DETAIL, 4_000) == live.run(Mode.DETAIL, 4_000)

        with pytest.raises(SimulationError, match="short of"):
            replaying.run(Mode.FUNC_WARM, 40_000)
        other = SimulationEngine(
            _program("164.gzip"),
            stream=ProgramStream(_program("300.twolf")),
            outcomes=record,
        )
        other.run(Mode.FUNC_FAST, 10_000)
        with pytest.raises(SimulationError, match="another stream"):
            other.run(Mode.FUNC_WARM, 1_000)

    def test_recording_engine_refuses_func_fast(self):
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        with pytest.raises(SimulationError, match="gap"):
            record.engine.run(Mode.FUNC_FAST, 1_000)
        assert record.ops == 0

    def test_replay_past_the_record_raises(self):
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        record.engine.run(Mode.FUNC_WARM, 5_000)
        engine = SimulationEngine(_program("164.gzip"), outcomes=record)
        engine.run(Mode.DETAIL, 4_000)
        with pytest.raises(SimulationError, match="short of"):
            engine.run(Mode.DETAIL, 4_000)

    def test_replay_of_another_stream_raises(self):
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        record.engine.run(Mode.FUNC_WARM, 50_000)
        engine = SimulationEngine(
            _program("164.gzip"),
            stream=ProgramStream(_program("300.twolf")),
            outcomes=record,
        )
        engine.run(Mode.FUNC_FAST, 10_000)
        with pytest.raises(SimulationError, match="another stream"):
            engine.run(Mode.DETAIL, 1_000)

    def test_record_of_another_workload_is_refused(self):
        """A re-seeded copy of the recorded program (as the ledger's
        seeded workloads make) starts with the same block, so only the
        identity check at construction tells it apart."""
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        record.engine.run(Mode.FUNC_WARM, 50_000)
        reseeded = _program("164.gzip")
        reseeded.seed = int.from_bytes(
            hashlib.sha256(b"7:164.gzip").digest()[:4], "big"
        )
        with pytest.raises(ConfigurationError, match="cannot replay"):
            SimulationEngine(reseeded, outcomes=record)
        longer = get_workload("164.gzip", replace(Scale.QUICK, benchmark_ops=400_000))
        with pytest.raises(ConfigurationError, match="cannot replay"):
            SimulationEngine(longer, outcomes=record)
        with pytest.raises(ConfigurationError, match="cannot replay"):
            SimulationEngine(_program("300.twolf"), outcomes=record)
        other_machine = replace(DEFAULT_MACHINE, branch_history_bits=10)
        with pytest.raises(ConfigurationError, match="another machine"):
            SimulationEngine(_program("164.gzip"), other_machine, outcomes=record)
        with pytest.raises(ConfigurationError, match="BimodalPredictor"):
            SimulationEngine(_program("164.gzip"), predictor="bimodal", outcomes=record)
        assert record.matches(_program("164.gzip"), DEFAULT_MACHINE)

    def test_an_engine_cannot_both_record_and_replay(self):
        record = OutcomeRecord(_program("164.gzip"), DEFAULT_MACHINE)
        with pytest.raises(ConfigurationError):
            SimulationEngine(_program("164.gzip"), outcomes=record, recorder=record)

    def test_replayed_windows_match_live_windows(self):
        """``run_windows`` replays with window marks as a live pass does."""
        record = OutcomeRecord(_program("300.twolf"), DEFAULT_MACHINE)
        record.engine.run(Mode.FUNC_WARM, 120_000)
        live = SimulationEngine(_program("300.twolf"))
        replaying = SimulationEngine(_program("300.twolf"), outcomes=record)
        live.run(Mode.FUNC_WARM, 30_000)
        replaying.run(Mode.FUNC_FAST, 30_000)
        assert [run for run, _ in replaying.run_windows(Mode.DETAIL, 2_000, 20)] == [
            run for run, _ in live.run_windows(Mode.DETAIL, 2_000, 20)
        ]
