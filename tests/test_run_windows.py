"""Windowed recording in one engine pass, against the per-window loop.

``SimulationEngine.run_windows`` runs several consecutive windows
through one architectural pass, and the windowed recorders
(``collect_reference_trace``, ``SimPoint.profile_intervals``) go through
it a chunk of windows at a time.  Every window must still come out as
one ``run`` per window followed by a raw tracker drain would give it:
the same ops, cycles and BBV, the same machine afterwards, and the same
segment events on the bus.  ``tests/scalar_reference.py`` keeps that
per-window loop as :func:`per_window_trace`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BbvTracker, Mode, ReducedBbvHash, SimulationEngine
from repro.config import Scale
from repro.errors import SimulationError
from repro.events import EventBus, SegmentEnd, SegmentStart
from repro.program import TraceStream, get_workload, mem_patterns, record_trace
from repro.sampling import SimPoint, SimPointConfig
from repro.sampling.full import WINDOWS_PER_CHUNK, collect_reference_trace
from repro.sampling.session import ModeSegment, SamplingSession, SegmentRole

from scalar_reference import assert_same_machine, per_window_trace

SCALE = Scale.QUICK
WINDOW = SCALE.trace_window
#: The golden workloads, a miss-heavy one, a random-branch one, and the
#: adversarial footprint stepper.
PROGRAMS = (
    "164.gzip",
    "183.equake",
    "300.twolf",
    "181.mcf",
    "197.parser",
    "adv.footprint_step",
)
#: Short programs for the property test, so chunks run the stream out.
SHORT = dataclasses.replace(SCALE, benchmark_ops=40_000)
_short_programs = {}


def short_program(name):
    if name not in _short_programs:
        _short_programs[name] = get_workload(name, SHORT)
    return _short_programs[name]


def assert_same_trace(got, want):
    assert got.window_ops_target == want.window_ops_target
    assert np.array_equal(got.ops, want.ops)
    assert np.array_equal(got.cycles, want.cycles)
    assert np.array_equal(got.bbvs, want.bbvs)


def traced_engine(program, hash_seed=12345, stream=None):
    tracker = BbvTracker(ReducedBbvHash(seed=hash_seed))
    return SimulationEngine(program, signal_tracker=tracker, stream=stream)


class TestRecordersMatchThePerWindowLoop:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_reference_trace(self, name):
        program = get_workload(name, SCALE)
        got = collect_reference_trace(program, WINDOW)
        # More than one chunk, the last one cut short by the program end.
        assert got.n_windows > WINDOWS_PER_CHUNK
        assert got.n_windows % WINDOWS_PER_CHUNK
        assert_same_trace(got, per_window_trace(traced_engine(program), Mode.DETAIL, WINDOW))

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_profile_intervals(self, name):
        program = get_workload(name, SCALE)
        cfg = SimPointConfig(interval_ops=WINDOW, n_clusters=3, hash_seed=7)
        got = SimPoint(cfg).profile_intervals(program)
        want = per_window_trace(traced_engine(program, hash_seed=7), Mode.FUNC_FAST, WINDOW)
        assert_same_trace(got, want)
        assert not got.cycles.any()

    @pytest.mark.parametrize("mode", [Mode.DETAIL, Mode.FUNC_FAST])
    def test_trace_stream_replay(self, mode):
        program = get_workload("197.parser", SCALE)
        trace = record_trace(program)
        engine = traced_engine(program, stream=TraceStream(program, trace))
        session = SamplingSession(engine)
        segment = ModeSegment(mode, WINDOW, role=SegmentRole.PROFILE)
        windows = []
        while not engine.exhausted:
            windows += session.run_windows(segment, WINDOWS_PER_CHUNK)
        want = per_window_trace(
            traced_engine(program, stream=TraceStream(program, trace)), mode, WINDOW
        )
        assert [w.run.ops for w, _ in windows] == want.ops.tolist()
        assert [w.run.cycles for w, _ in windows] == want.cycles.tolist()
        assert np.array_equal(np.array([v for _, v in windows]), want.bbvs)

    def test_bus_sees_the_same_segment_events(self):
        program = get_workload("300.twolf", SCALE)

        def segment_events(record):
            bus = EventBus()
            seen = []
            bus.subscribe(SegmentStart, seen.append)
            bus.subscribe(SegmentEnd, seen.append)
            record(bus)
            return seen

        got = segment_events(
            lambda bus: collect_reference_trace(program, WINDOW, bus=bus)
        )
        want = segment_events(
            lambda bus: per_window_trace(traced_engine(program), Mode.DETAIL, WINDOW, bus)
        )
        assert len(got) > 2 * WINDOWS_PER_CHUNK
        assert got == want


class TestRunWindows:
    @given(
        name=st.sampled_from(["164.gzip", "197.parser", "181.mcf"]),
        mode=st.sampled_from(list(Mode)),
        tracked=st.booleans(),
        lead=st.integers(min_value=0, max_value=20_000),
        window=st.integers(min_value=1, max_value=4_000),
        count=st.integers(min_value=0, max_value=24),
        slice_accesses=st.sampled_from([64, mem_patterns.SLICE_ACCESSES]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_repeated_run_and_drain(
        self, name, mode, tracked, lead, window, count, slice_accesses
    ):
        """Windows, machine, stream, tracker and accounting all equal
        *count* ``run`` calls each followed by a drain, including chunks
        in which the stream runs out and, with 64-access slices, window
        marks carried across many slices."""
        saved = mem_patterns.SLICE_ACCESSES
        mem_patterns.SLICE_ACCESSES = slice_accesses
        try:
            self._check_against_runs(name, mode, tracked, lead, window, count)
        finally:
            mem_patterns.SLICE_ACCESSES = saved

    def _check_against_runs(self, name, mode, tracked, lead, window, count):
        program = short_program(name)

        def engine():
            return SimulationEngine(
                program, signal_tracker=BbvTracker() if tracked else None
            )

        batched, oracle = engine(), engine()
        for e in (batched, oracle):
            e.run(Mode.FUNC_WARM, lead)
        got = batched.run_windows(mode, window, count)
        want = []
        for _ in range(count):
            run = oracle.run(mode, window)
            if run.ops == 0:
                break
            tracker = oracle.signal_tracker
            want.append((run, tracker.take_vector(normalize=False) if tracked else None))

        assert [run for run, _ in got] == [run for run, _ in want]
        for (_, v1), (_, v2) in zip(got, want):
            assert (v1 is None and v2 is None) or np.array_equal(v1, v2)
        assert_same_machine(batched, oracle)
        assert batched.pipeline.cycle == oracle.pipeline.cycle
        assert batched.pipeline.timing_snapshot() == oracle.pipeline.timing_snapshot()
        assert batched.stream.snapshot() == oracle.stream.snapshot()
        if tracked:
            assert batched.signal_tracker.snapshot() == oracle.signal_tracker.snapshot()
        assert batched.accounting.ops == oracle.accounting.ops

    def test_stops_after_the_window_that_ends_the_program(self):
        engine = SimulationEngine(short_program("164.gzip"))
        windows = engine.run_windows(Mode.DETAIL, 1_000, 10_000)
        assert [run.exhausted for run, _ in windows[-2:]] == [False, True]
        assert sum(run.ops for run, _ in windows) == engine.ops_completed
        assert engine.run_windows(Mode.DETAIL, 1_000, 5) == []

    def test_rejects_bad_arguments(self):
        engine = SimulationEngine(short_program("164.gzip"))
        with pytest.raises(SimulationError):
            engine.run_windows(Mode.DETAIL, 0, 1)
        with pytest.raises(SimulationError):
            engine.run_windows(Mode.DETAIL, 1_000, -1)
