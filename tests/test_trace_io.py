"""Tests for trace recording and trace-driven replay."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Behavior,
    BlockBuilder,
    Mode,
    PatternKind,
    Program,
    ProgramError,
    ProgramStream,
    Scale,
    Segment,
    SimulationEngine,
    get_workload,
    make_signal_tracker,
)
from repro.program import EventTrace, TraceStream, record_trace
from repro.sampling import FullDetail

from conftest import make_two_phase_program
from scalar_reference import assert_same_machine, run_scalar


@pytest.fixture(scope="module")
def program():
    return make_two_phase_program()


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


@pytest.fixture(scope="module")
def replays(program, trace):
    """``(program, trace)`` by name: the two-phase program (loop-controlled
    blocks only) and a workload with random-branch blocks."""
    parser = get_workload("197.parser", Scale.QUICK)
    assert any(b.random_taken_prob is not None for b in parser.blocks)
    return {
        "two_phase": (program, trace),
        "197.parser": (parser, record_trace(parser)),
    }


def _expand(runs):
    return [(e.block.bid, e.taken, e.k) for run in runs for e in run.events()]


def _scalar_walk(stream, max_ops):
    """The events ``next_event`` yields until *max_ops* ops are crossed."""
    events = []
    got = 0
    while got < max_ops:
        event = stream.next_event()
        if event is None:
            break
        events.append((event.block.bid, event.taken, event.k))
        got += event.block.n_ops
    return events


def _hand_built():
    """A loop-controlled block and a random-branch block, and a trace of
    them that breaks runs every way a recorded trace can."""
    b = BlockBuilder(seed=8)
    loop = b.build(ops=6, mem_patterns=[b.pattern(PatternKind.STREAM, 1 << 14)])
    rand = b.build(
        ops=5,
        mem_patterns=[b.pattern(PatternKind.RANDOM, 1 << 16)],
        random_taken_prob=0.5,
    )
    program = Program(
        "hand", [loop, rand], [Behavior("main", [(loop, 3), (rand, 2)])],
        [Segment("main", 200)],
    )
    events = [
        (0, True, 0), (0, True, 1), (0, False, 2),  # a loop entry ends...
        (0, True, 3),  # ...the next one is cut short by a jump in k
        (0, True, 7), (0, False, 8),
        (1, True, 0), (1, False, 1), (1, True, 2),  # random: not-taken inside
        (1, True, 5),  # a jump in k
        (0, True, 9),  # a block change
    ]
    bids, taken, ks = zip(*events)
    return program, EventTrace("hand", np.array(bids), np.array(taken), np.array(ks))


class TestRecord:
    def test_records_full_run(self, program, trace):
        assert len(trace) > 0
        assert trace.total_ops(program) >= program.total_ops

    def test_matches_live_stream(self, program, trace):
        stream = ProgramStream(program)
        for i, event in enumerate(stream):
            assert trace.bids[i] == event.block.bid
            assert trace.taken[i] == event.taken
            assert trace.ks[i] == event.k

    def test_max_ops_bound(self, program):
        partial = record_trace(program, max_ops=10_000)
        assert 10_000 <= partial.total_ops(program) <= 10_100

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ProgramError):
            EventTrace("x", np.zeros(2), np.zeros(3, dtype=bool), np.zeros(2))


class TestSaveLoad:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = EventTrace.load(path)
        assert loaded.program_name == trace.program_name
        assert (loaded.bids == trace.bids).all()
        assert (loaded.taken == trace.taken).all()
        assert (loaded.ks == trace.ks).all()


class TestReplay:
    def test_rejects_wrong_program(self, trace):
        other = make_two_phase_program(seed=99)
        other_named = type(other)(
            "different", other.blocks, list(other.behaviors.values()),
            other.script, seed=1,
        )
        with pytest.raises(ProgramError):
            TraceStream(other_named, trace)

    def test_replay_events_identical(self, program, trace):
        replay = trace.as_stream(program)
        live = ProgramStream(program)
        for live_event in live:
            replayed = replay.next_event()
            assert replayed.block is live_event.block
            assert replayed.taken == live_event.taken
            assert replayed.k == live_event.k
        assert replay.next_event() is None

    def test_snapshot_restore(self, program, trace):
        replay = trace.as_stream(program)
        replay.next_events(5_000)
        snap = replay.snapshot()
        tail1 = [e.block.bid for e in replay]
        replay2 = trace.as_stream(program)
        replay2.restore(snap)
        tail2 = [e.block.bid for e in replay2]
        assert tail1 == tail2


class TestNextEvents:
    @given(
        st.sampled_from(("two_phase", "197.parser")),
        st.lists(st.integers(min_value=0, max_value=25_000), min_size=1, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_runs_expand_to_the_scalar_walk(self, replays, name, budgets):
        """For any budget sequence the runs expand to the events
        ``next_event`` yields, and both streams stop at equal snapshots."""
        program, trace = replays[name]
        scalar, batched = trace.as_stream(program), trace.as_stream(program)
        for max_ops in budgets:
            assert _expand(batched.next_events(max_ops)) == _scalar_walk(
                scalar, max_ops
            )
            assert batched.snapshot() == scalar.snapshot()
            assert batched.exhausted == scalar.exhausted

    def test_hand_built_trace_breaks_runs(self, tmp_path):
        """Runs break at a block change, at a non-consecutive k and after
        a loop-controlled not-taken outcome (``ends_entry``); a
        random-branch run carries its outcomes, not-taken ones included."""
        program, trace = _hand_built()
        path = tmp_path / "hand.npz"
        trace.save(path)
        stream = EventTrace.load(path).as_stream(program)
        runs = stream.next_events(10**9)
        assert [(r.block.bid, r.n, r.k_start, r.ends_entry, r.takens) for r in runs] == [
            (0, 3, 0, True, None),
            (0, 1, 3, False, None),
            (0, 2, 7, True, None),
            (1, 3, 0, False, (True, False, True)),
            (1, 1, 5, False, (True,)),
            (0, 1, 9, False, None),
        ]
        assert stream.exhausted
        assert stream.ops_emitted == trace.total_ops(program)
        assert stream.next_events(10**9) == []

    def test_budget_cuts_a_run(self):
        """The event that crosses the budget ends the batch, even inside a
        run; the rest of the run comes with the next batch."""
        program, trace = _hand_built()
        stream = trace.as_stream(program)
        loop_ops = program.blocks[0].n_ops
        first = stream.next_events(loop_ops + 1)
        assert [(r.n, r.k_start, r.ends_entry) for r in first] == [(2, 0, False)]
        rest = stream.next_events(1)
        assert [(r.n, r.k_start, r.ends_entry) for r in rest] == [(1, 2, True)]
        assert stream.ops_emitted == 3 * loop_ops
        assert stream.next_events(0) == []


def _assert_same_engines(scalar, batched):
    """Full snapshots (stream, caches, predictor, timing, tracker
    registers), every machine counter and the op accounting."""
    assert scalar.snapshot() == batched.snapshot()
    assert_same_machine(scalar, batched)
    assert scalar.accounting.ops == batched.accounting.ops


class TestTraceDrivenSimulation:
    def test_replayed_ipc_matches_execution_driven(self, program, trace):
        """Trace-driven detailed simulation is bit-identical to
        execution-driven simulation of the same program."""
        live = FullDetail().run(program)
        engine = SimulationEngine(program, stream=trace.as_stream(program))
        replayed = engine.run_to_end(Mode.DETAIL)
        assert replayed.ops == live.total_ops
        assert replayed.ipc == pytest.approx(live.ipc_estimate, rel=1e-12)

    def test_replay_on_different_machine(self, program, trace):
        """The same trace replays under a different cache configuration,
        isolating architecture effects from workload generation."""
        from repro import DEFAULT_MACHINE

        small = DEFAULT_MACHINE.scaled_cache(4, 64)
        engine = SimulationEngine(
            program, machine=small, stream=trace.as_stream(program)
        )
        result = engine.run_to_end(Mode.DETAIL)
        base = FullDetail().run(program)
        assert result.ipc <= base.ipc_estimate + 1e-9

    @pytest.mark.parametrize("signal", (None, "bbv", "mav", "concat"))
    @pytest.mark.parametrize("name", ("two_phase", "197.parser"))
    def test_replay_matches_scalar_reference(self, replays, name, signal):
        """Batched replay of a trace equals the scalar event loop over the
        same trace: random DETAIL, DETAIL_WARM, FUNC_WARM and FUNC_FAST
        windows, with each tracker kind."""
        program, trace = replays[name]
        engines = [
            SimulationEngine(
                program,
                stream=trace.as_stream(program),
                signal_tracker=make_signal_tracker(signal) if signal else None,
            )
            for _ in range(2)
        ]
        scalar, batched = engines
        rng = random.Random(f"{name}/{signal}")
        while not scalar.exhausted:
            mode = rng.choice(list(Mode))
            n_ops = rng.randint(1, 30_000)
            r1 = run_scalar(scalar, mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (r2.ops, r2.cycles, r2.exhausted)
            _assert_same_engines(scalar, batched)
        assert batched.exhausted

    @pytest.mark.parametrize("mode", (Mode.DETAIL, Mode.FUNC_WARM))
    def test_hand_built_trace_matches_scalar_reference(self, mode):
        program, trace = _hand_built()
        scalar, batched = (
            SimulationEngine(
                program,
                stream=trace.as_stream(program),
                signal_tracker=make_signal_tracker("concat"),
            )
            for _ in range(2)
        )
        for n_ops in (1, 7, 20, 1_000):
            r1 = run_scalar(scalar, mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (r2.ops, r2.cycles, r2.exhausted)
            _assert_same_engines(scalar, batched)
        assert batched.exhausted
