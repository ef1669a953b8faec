"""Scalar vs. batched engine equivalence — the batching correctness gate.

The batched fast-forward layer (``ProgramStream.next_events`` +
``BbvTracker.record_batch`` + the engine's batched dispatch) claims to be
*bit-identical* to the scalar event loop: same stream state (including RNG
draw order), same BBV register file, same machine state, same op
accounting.  Every sampling technique rests on that claim, so it is
checked here three ways:

* stream level: run expansion reproduces the scalar event sequence and
  lands in an equal ``snapshot()`` at arbitrary batch boundaries;
* engine level (hypothesis): interleaved ``run()`` calls of random modes
  and lengths, with and without a tracker, keep a scalar and a batched
  engine in equal snapshot states after every call;
* technique level: PGSS end-to-end produces an identical
  ``SamplingResult`` on three workloads either way.

The batched FUNC_WARM warmer gets its own suite: it credits silent cache
hits and predictor steps in bulk, so besides state it must reproduce
every counter — a wrong hit count leaves snapshots equal.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DEFAULT_MACHINE,
    BbvTracker,
    Mode,
    ProgramStream,
    Scale,
    SimulationEngine,
    get_workload,
)
from repro.config import CacheConfig
from repro.cpu.multicore import MultiCoreEngine
from repro.program import ADVERSARIAL_NAMES, WORKLOAD_NAMES
from repro.sampling.pgss import Pgss, PgssConfig
from conftest import make_two_phase_program

WORKLOADS = ("164.gzip", "197.parser", "256.bzip2")


def _workload(name):
    if name == "two_phase":
        return make_two_phase_program()
    return get_workload(name, Scale.QUICK)


class TestStreamEquivalence:
    @pytest.mark.parametrize("name", ("two_phase",) + WORKLOADS)
    def test_run_expansion_matches_scalar_events(self, name):
        program = _workload(name)
        scalar = ProgramStream(program)
        batched = ProgramStream(program)
        expanded = [
            (e.block.bid, e.taken, e.k)
            for run in batched.next_events(10**9)
            for e in run.events()
        ]
        events = [(e.block.bid, e.taken, e.k) for e in scalar]
        assert expanded == events
        assert scalar.snapshot() == batched.snapshot()

    @given(st.lists(st.integers(min_value=1, max_value=25_000), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_snapshot_equal_at_arbitrary_batch_boundaries(self, batches):
        program = make_two_phase_program()
        scalar = ProgramStream(program)
        batched = ProgramStream(program)
        for max_ops in batches:
            # Scalar reference: the engine's while-loop contract.
            got = 0
            while got < max_ops:
                event = scalar.next_event()
                if event is None:
                    break
                got += event.block.n_ops
            runs = batched.next_events(max_ops)
            assert sum(r.ops for r in runs) == got
            assert scalar.snapshot() == batched.snapshot()

    def test_next_events_empty_after_exhaustion(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        stream.next_events(10**9)
        assert stream.exhausted
        assert stream.next_events(1_000) == []
        assert stream.next_events(0) == []

    def test_runs_collapse_loop_iterations(self, two_phase_program):
        """The whole point: far fewer runs than dynamic blocks."""
        stream = ProgramStream(two_phase_program)
        runs = stream.next_events(50_000)
        n_events = sum(r.n for r in runs)
        assert n_events > 10 * len(runs)


class TestEngineEquivalence:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_interleaved_modes_keep_snapshots_equal(self, seed, with_tracker):
        """Satellite invariant: any interleaving of run() calls leaves the
        scalar and batched engines in identical snapshot states."""
        program = make_two_phase_program()
        rng = random.Random(seed)
        t1 = BbvTracker() if with_tracker else None
        t2 = BbvTracker() if with_tracker else None
        scalar = SimulationEngine(program, signal_tracker=t1, batched=False)
        batched = SimulationEngine(program, signal_tracker=t2, batched=True)
        modes = list(Mode)
        for _ in range(12):
            mode = rng.choice(modes)
            n_ops = rng.randint(1, 25_000)
            r1 = scalar.run(mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (r2.ops, r2.cycles, r2.exhausted)
            assert scalar.snapshot() == batched.snapshot()
        assert scalar.accounting.ops == batched.accounting.ops

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [Mode.DETAIL, Mode.DETAIL_WARM, Mode.FUNC_WARM]
                ),
                st.integers(min_value=1, max_value=30_000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_detail_windows_byte_identical_on_real_workload(self, windows):
        """The batched detailed pipeline's claim, checked the hard way:
        for arbitrary window interleavings on a real workload, every
        window's cycle count AND all cache/predictor state AND all
        statistics counters match the scalar loop exactly."""
        program = _workload("164.gzip")
        scalar = SimulationEngine(program, batched=False)
        batched = SimulationEngine(program, batched=True)
        for mode, n_ops in windows:
            r1 = scalar.run(mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (
                r2.ops,
                r2.cycles,
                r2.exhausted,
            )
            h1, h2 = scalar.hierarchy, batched.hierarchy
            assert h1.snapshot() == h2.snapshot()
            assert h1.stats_summary() == h2.stats_summary()
            assert h1.memory_accesses == h2.memory_accesses
            for c1, c2 in zip((h1.l1i, h1.l1d, h1.l2), (h2.l1i, h2.l1d, h2.l2)):
                assert c1.stats.writebacks == c2.stats.writebacks
            assert scalar.predictor.snapshot() == batched.predictor.snapshot()
            s1, s2 = scalar.predictor.stats, batched.predictor.stats
            assert (s1.predictions, s1.mispredictions) == (
                s2.predictions,
                s2.mispredictions,
            )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_bbv_vector_sequence_identical(self, name):
        """Period-boundary BBV vectors are bit-identical on real workloads."""
        program = _workload(name)
        engines = [
            SimulationEngine(program, signal_tracker=BbvTracker(), batched=batched)
            for batched in (False, True)
        ]
        period = 8_000
        while not engines[0].exhausted:
            vecs = []
            for engine in engines:
                engine.run(Mode.FUNC_FAST, period)
                vecs.append(engine.signal_tracker.take_vector(normalize=True))
            assert (vecs[0] == vecs[1]).all()
        assert engines[1].exhausted

    def test_func_warm_batched_matches_detail_state(self, two_phase_program):
        """Batched FUNC_WARM still leaves caches/predictor exactly as
        DETAIL would — the SMARTS soundness requirement."""
        detail = SimulationEngine(two_phase_program)
        warm = SimulationEngine(two_phase_program, batched=True)
        detail.run(Mode.DETAIL, 30_000)
        warm.run(Mode.FUNC_WARM, 30_000)
        assert detail.hierarchy.snapshot() == warm.hierarchy.snapshot()
        assert detail.predictor.snapshot() == warm.predictor.snapshot()


class TestPgssEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_pgss_end_to_end_identical(self, name):
        """PGSS produces an identical SamplingResult either way."""
        program = _workload(name)
        cfg = PgssConfig.from_scale(Scale.QUICK)
        pgss = Pgss(cfg)
        results = []
        for batched in (False, True):
            engine = SimulationEngine(
                program,
                machine=pgss.machine,
                signal_tracker=pgss._make_tracker(),
                batched=batched,
            )
            controller = pgss.make_controller(engine)
            while controller.step():
                pass
            results.append((controller.result(), controller.sample_offsets))
        (scalar, scalar_offsets), (batched, batched_offsets) = results
        assert scalar.ipc_estimate == batched.ipc_estimate
        assert scalar.detailed_ops == batched.detailed_ops
        assert scalar.total_ops == batched.total_ops
        assert scalar.n_samples == batched.n_samples
        assert scalar.accounting.ops == batched.accounting.ops
        assert scalar_offsets == batched_offsets


#: Every workload ``get_workload`` builds.
ALL_WORKLOADS = WORKLOAD_NAMES + ADVERSARIAL_NAMES + ("168.wupwise",)


def _assert_same_warm_state(scalar, batched):
    """Machine state *and* every counter FUNC_WARM touches are equal."""
    h1, h2 = scalar.hierarchy, batched.hierarchy
    assert h1.snapshot() == h2.snapshot()
    assert h1.stats_summary() == h2.stats_summary()
    assert h1.memory_accesses == h2.memory_accesses
    for c1, c2 in zip((h1.l1i, h1.l1d, h1.l2), (h2.l1i, h2.l1d, h2.l2)):
        assert c1.stats.writebacks == c2.stats.writebacks
    assert scalar.predictor.snapshot() == batched.predictor.snapshot()
    s1, s2 = scalar.predictor.stats, batched.predictor.stats
    assert (s1.predictions, s1.mispredictions) == (
        s2.predictions,
        s2.mispredictions,
    )


def _warm_to_end(scalar, batched, seed, max_chunk=40_000):
    """FUNC_WARM both engines to the end in equal random chunks,
    comparing after every chunk."""
    rng = random.Random(seed)
    while not scalar.exhausted:
        n_ops = rng.randint(1, max_chunk)
        r1 = scalar.run(Mode.FUNC_WARM, n_ops)
        r2 = batched.run(Mode.FUNC_WARM, n_ops)
        assert (r1.ops, r1.exhausted) == (r2.ops, r2.exhausted)
        _assert_same_warm_state(scalar, batched)
    assert batched.exhausted


def _warm_pair(program, **kwargs):
    return (
        SimulationEngine(program, batched=False, **kwargs),
        SimulationEngine(program, batched=True, **kwargs),
    )


class TestFuncWarmEquivalence:
    @pytest.mark.parametrize("predictor", ("gshare", "bimodal"))
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_workload_in_random_chunks(self, name, predictor):
        scalar, batched = _warm_pair(_workload(name), predictor=predictor)
        _warm_to_end(scalar, batched, seed=f"{name}/{predictor}")

    def test_salted_core_on_shared_l2(self):
        """Core 1 of a CMP: salted addresses, an L2 shared with core 0,
        and the two cores' warming interleaved in random slices."""
        programs = [_workload("164.gzip"), _workload("183.equake")]
        scalar = MultiCoreEngine(programs)
        batched = MultiCoreEngine(programs)
        for engine in scalar.engines:
            engine.batched = False
        assert batched.engines[1].hierarchy.address_salt != 0
        rng = random.Random(11)
        while not scalar.all_exhausted:
            for core in (0, 1):
                n_ops = rng.randint(1, 20_000)
                r1 = scalar.engines[core].run(Mode.FUNC_WARM, n_ops)
                r2 = batched.engines[core].run(Mode.FUNC_WARM, n_ops)
                assert r1.ops == r2.ops
                _assert_same_warm_state(scalar.engines[core], batched.engines[core])
        assert batched.all_exhausted

    def test_random_branch_runs(self):
        """Runs carrying per-event ``takens`` apply them one by one."""
        scalar, batched = _warm_pair(_workload("197.parser"))
        execute_run = batched.warmer.execute_run
        seen = []

        def spy(run):
            if run.takens is not None and run.n > 1:
                seen.append(run)
            execute_run(run)

        batched.warmer.execute_run = spy
        _warm_to_end(scalar, batched, seed=3)
        assert seen

    @pytest.mark.parametrize(
        "l1i",
        (CacheConfig(128, 1), CacheConfig(128, 1, line_bytes=32)),
        ids=("64B-lines", "32B-lines"),
    )
    def test_l1i_with_fewer_sets_than_block_lines(self, l1i):
        """A block whose fetch lines share a set of a direct-mapped L1I
        evicts itself, so its later fetches are not silent hits.  With
        32-byte L1I lines the program's 64-byte fetch lines land two L1I
        lines apart, so a 3-line block already wraps a 4-set L1I."""
        machine = dataclasses.replace(DEFAULT_MACHINE, l1i=l1i)
        program = _workload("164.gzip")
        assert any(
            not _distinct_l1i_sets(block.inst_lines, l1i) for block in program.blocks
        )
        scalar, batched = _warm_pair(program, machine=machine)
        _warm_to_end(scalar, batched, seed=5)

    def test_detail_with_32_byte_l1i_lines(self):
        """The batched pipeline's silent-fetch guard, on the same 4-set
        32-byte-line L1I: DETAIL and DETAIL_WARM windows stay identical."""
        l1i = CacheConfig(128, 1, line_bytes=32)
        machine = dataclasses.replace(DEFAULT_MACHINE, l1i=l1i)
        program = _workload("164.gzip")
        scalar, batched = _warm_pair(program, machine=machine)
        rng = random.Random(9)
        for _ in range(6):
            mode = rng.choice((Mode.DETAIL, Mode.DETAIL_WARM))
            n_ops = rng.randint(1, 30_000)
            r1 = scalar.run(mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles) == (r2.ops, r2.cycles)
            _assert_same_warm_state(scalar, batched)


def _distinct_l1i_sets(inst_lines, l1i):
    """Do the L1I lines holding *inst_lines* fall in distinct sets?"""
    lines = {addr // l1i.line_bytes for addr in inst_lines}
    return len({line % l1i.n_sets for line in lines}) == len(lines)
