"""Tests for the program stream: determinism, control flow, snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProgramStream, get_workload, Scale
from conftest import make_two_phase_program


class TestStreamBasics:
    def test_emits_until_script_done(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        events = list(stream)
        assert stream.exhausted
        total = sum(e.block.n_ops for e in events)
        assert total == stream.ops_emitted
        # Segments overshoot by at most one block each.
        assert two_phase_program.total_ops <= total
        assert total <= two_phase_program.total_ops + 4 * 24

    def test_deterministic_replay(self, two_phase_program):
        s1 = ProgramStream(two_phase_program)
        s2 = ProgramStream(two_phase_program)
        e1 = [(e.block.bid, e.taken, e.k) for e in s1]
        e2 = [(e.block.bid, e.taken, e.k) for e in s2]
        assert e1 == e2

    def test_execution_counts_increment(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        seen = {}
        for event in stream:
            expected = seen.get(event.block.bid, 0)
            assert event.k == expected
            seen[event.block.bid] = expected + 1

    def test_loop_branch_pattern(self, two_phase_program):
        """Within one entry visit the terminator is taken until the final
        iteration."""
        stream = ProgramStream(two_phase_program)
        events = [stream.next_event() for _ in range(120)]
        # First behaviour: 'fast' with ~50-iteration visits: expect a run
        # of takens then one not-taken at each visit boundary.
        takens = [e.taken for e in events]
        assert takens[0] is True
        assert False in takens  # an exit occurs within ~50 iterations
        first_exit = takens.index(False)
        assert 40 <= first_exit <= 60
        assert all(takens[:first_exit])

    def test_next_event_none_after_end(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        for _ in stream:
            pass
        assert stream.next_event() is None

    def test_current_behavior_name(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        assert stream.current_behavior_name == "fast"

    def test_take_ops(self, two_phase_program):
        """An op budget overshoots by at most one block, and the batch
        expands to exactly the scalar event prefix of the same length."""
        stream = ProgramStream(two_phase_program)
        runs = stream.next_events(1000)
        got = sum(r.ops for r in runs)
        assert 1000 <= got <= 1000 + 24
        expanded = [(r.block.bid, r.taken_at(i), r.k_start + i)
                    for r in runs for i in range(r.n)]
        scalar = ProgramStream(two_phase_program)
        prefix = [(e.block.bid, e.taken, e.k)
                  for e in (scalar.next_event() for _ in expanded)]
        assert expanded == prefix
        assert scalar.ops_emitted == stream.ops_emitted

    def test_take_ops_zero(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        assert stream.next_events(0) == []
        assert not stream.exhausted
        assert stream.next_event() is not None


class TestStreamBatched:
    def test_next_events_totals_and_counters(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        runs = stream.next_events(10_000)
        total = sum(r.ops for r in runs)
        assert total == stream.ops_emitted
        assert 10_000 <= total <= 10_000 + 24
        # Execution counters advanced arithmetically: k ranges abut.
        seen = {}
        for run in runs:
            assert run.k_start == seen.get(run.block.bid, 0)
            seen[run.block.bid] = run.k_start + run.n

    def test_loop_run_branch_pattern(self, two_phase_program):
        """A full entry visit is taken on every iteration except the last."""
        stream = ProgramStream(two_phase_program)
        run = stream.next_events(10_000)[0]
        assert run.ends_entry
        takens = [run.taken_at(i) for i in range(run.n)]
        assert takens == [True] * (run.n - 1) + [False]
        assert run.last_taken == run.n - 2

    def test_truncated_run_is_all_taken(self, two_phase_program):
        """A batch boundary mid-entry leaves the loop branch taken."""
        stream = ProgramStream(two_phase_program)
        first = stream.next_events(10_000)[0]
        fresh = ProgramStream(two_phase_program)
        cut = fresh.next_events((first.n - 1) * first.block.n_ops - 1)[0]
        assert not cut.ends_entry
        assert cut.n < first.n
        assert all(cut.taken_at(i) for i in range(cut.n))
        assert cut.last_taken == cut.n - 1

    def test_random_branch_runs_carry_draws(self):
        program = get_workload("197.parser", Scale.QUICK)
        stream = ProgramStream(program)
        runs = stream.next_events(50_000)
        random_runs = [r for r in runs if r.block.random_taken_prob is not None]
        assert random_runs, "parser should contain random branches"
        assert all(r.takens is not None and len(r.takens) == r.n for r in random_runs)
        loop_runs = [r for r in runs if r.block.random_taken_prob is None]
        assert all(r.takens is None for r in loop_runs)

    def test_nonpositive_budget_returns_empty(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        assert stream.next_events(0) == []
        assert stream.next_events(-5) == []
        assert stream.ops_emitted == 0

    def test_snapshot_restore_crosses_paths(self, two_phase_program):
        """A snapshot taken after batched advance resumes scalar, and
        vice versa — checkpoints are path-agnostic."""
        batched = ProgramStream(two_phase_program)
        batched.next_events(20_000)
        snap = batched.snapshot()
        scalar = ProgramStream(two_phase_program)
        scalar.restore(snap)
        tail_scalar = [(e.block.bid, e.taken, e.k) for e in scalar]
        resumed = ProgramStream(two_phase_program)
        resumed.restore(snap)
        tail_batched = [
            (e.block.bid, e.taken, e.k)
            for run in resumed.next_events(10**9)
            for e in run.events()
        ]
        assert tail_scalar == tail_batched


class TestStreamSnapshot:
    def test_snapshot_restore_resumes_identically(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        stream.next_events(20_000)
        snap = stream.snapshot()
        tail1 = [(e.block.bid, e.taken, e.k) for e in stream]
        stream2 = ProgramStream(two_phase_program)
        stream2.restore(snap)
        tail2 = [(e.block.bid, e.taken, e.k) for e in stream2]
        assert tail1 == tail2

    @given(st.integers(min_value=1, max_value=120_000))
    @settings(max_examples=20, deadline=None)
    def test_snapshot_anywhere(self, cut):
        program = make_two_phase_program()
        stream = ProgramStream(program)
        stream.next_events(cut)
        snap = stream.snapshot()
        tail1 = [(e.block.bid, e.taken) for e in stream]
        fresh = ProgramStream(program)
        fresh.restore(snap)
        tail2 = [(e.block.bid, e.taken) for e in fresh]
        assert tail1 == tail2

    def test_restore_rejects_wrong_program(self, two_phase_program, quick_gzip):
        s1 = ProgramStream(two_phase_program)
        s2 = ProgramStream(quick_gzip)
        with pytest.raises(Exception):
            s2.restore(s1.snapshot())


class TestStreamOnWorkloads:
    def test_workload_stream_matches_nominal_length(self, quick_gzip):
        stream = ProgramStream(quick_gzip)
        for _ in stream:
            pass
        nominal = quick_gzip.total_ops
        assert nominal <= stream.ops_emitted <= nominal * 1.15

    def test_random_branch_blocks_vary(self):
        program = get_workload("197.parser", Scale.QUICK)
        stream = ProgramStream(program)
        outcomes_by_block = {}
        for event in stream:
            if event.block.random_taken_prob is not None:
                outcomes_by_block.setdefault(event.block.bid, set()).add(event.taken)
        assert outcomes_by_block, "parser should contain random branches"
        assert any(len(v) == 2 for v in outcomes_by_block.values())
