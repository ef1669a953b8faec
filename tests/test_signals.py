"""The phase-signal layer: MAV correctness, concatenation, sensitivity.

Three claims are pinned here:

* the MAV's closed-form batching (``batch_addresses`` +
  ``record_batch``) is *bit-identical* to the scalar event loop, the
  same gate ``tests/test_batched_equivalence.py`` holds the BBV to;
* tracker snapshots use the compact buffer form and still restore the
  historical list payloads (checkpoint back-compat);
* the signals differ where they should: a phase change visible only in
  the memory stream (control-flow twin blocks) is invisible to the BBV
  classifier and detected by the MAV and the concatenated signal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Behavior,
    BbvTracker,
    BlockBuilder,
    ConcatenatedSignal,
    MavTracker,
    Mode,
    PatternKind,
    Program,
    ProgramStream,
    Scale,
    Segment,
    SimulationEngine,
    get_workload,
    make_signal_tracker,
)
from repro.errors import ConfigurationError, ProgramError
from repro.experiments import ExperimentContext, signal_ablation
from repro.phase import OnlinePhaseClassifier
from repro.program import ADVERSARIAL_NAMES
from repro.isa import Instruction, Op
from repro.program.block import BasicBlock
from repro.program.mem_patterns import (
    LOOKAHEAD,
    SLICE_ACCESSES,
    AddressWindows,
    MemPattern,
    batch_addresses,
    batch_slices,
)
from repro.program.stream import BlockRun
from repro.sampling.session import ModeSegment, SamplingSession, SegmentRole
from repro.signals import PHASE_SIGNALS
from conftest import make_two_phase_program, record_event
from scalar_reference import ScalarEngine, recorder, registers


# ----------------------------------------------------------------------
# batch_addresses: one vectorised address stream per batch


_patterns = st.builds(
    MemPattern,
    kind=st.sampled_from(list(PatternKind)),
    base=st.integers(min_value=0, max_value=1 << 40),
    span=st.integers(min_value=1, max_value=1 << 24),
    stride=st.integers(min_value=1, max_value=1 << 16),
    seed=st.integers(min_value=0, max_value=(1 << 16) - 1),
    is_write=st.booleans(),
)


def _block_with(patterns):
    """A block with one memory instruction per pattern (none for [])."""
    insts = [Instruction(Op.LOAD, dst=1, src1=2, mem_index=i) for i in range(len(patterns))]
    return BasicBlock(0, 0x1000, insts + [Instruction(Op.BRANCH)], patterns)


class TestBatchAddresses:
    @given(
        blocks=st.lists(st.lists(_patterns, max_size=3), min_size=1, max_size=4),
        runs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=1 << 30),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_event_address(self, blocks, runs):
        """Mixed batches: strided and hashed patterns, multi-pattern
        blocks, ``n == 1`` runs and blocks with no patterns."""
        blocks = [_block_with(pats) for pats in blocks]
        batch = [
            BlockRun(blocks[i % len(blocks)], n, k_start, True)
            for i, n, k_start in runs
        ]
        addrs, writes = batch_addresses(batch)
        expected = [
            (pat.address(event.k), pat.is_write)
            for run in batch
            for event in run.events()
            for pat in event.block.mem_patterns
        ]
        assert addrs.dtype == np.int64 and writes.dtype == bool
        assert list(zip(addrs.tolist(), writes.tolist())) == expected

    def test_slices_cut_long_runs_and_keep_order(self):
        """Slices hold at most SLICE_ACCESSES accesses; a run longer than
        that alone is chunked, and the slices' streams concatenate to the
        whole batch's."""
        strided = MemPattern(PatternKind.STREAM, base=1 << 26, span=1 << 20)
        hashed = MemPattern(PatternKind.RANDOM, base=2 << 26, span=1 << 20, seed=7)
        two, none = _block_with([strided, hashed]), _block_with([])
        batch = [
            BlockRun(two, 3, 5, True),
            BlockRun(none, 9, 0, True),
            BlockRun(two, SLICE_ACCESSES, 8, True),
            BlockRun(two, 1, SLICE_ACCESSES + 8, True),
        ]
        parts = list(batch_slices(batch))
        sizes = [sum(run.n * len(run.block.mem_patterns) for run in part) for part in parts]
        assert max(sizes) <= SLICE_ACCESSES
        assert sum(sizes) == sum(run.n * len(run.block.mem_patterns) for run in batch)
        whole, _ = batch_addresses(batch)
        sliced = np.concatenate([batch_addresses(part)[0] for part in parts])
        assert sliced.tolist() == whole.tolist()

    @pytest.mark.parametrize("ends_entry", (True, False))
    @pytest.mark.parametrize("random_branch", (False, True))
    def test_chunks_are_runs_whose_events_concatenate_to_the_run(
        self, ends_entry, random_branch
    ):
        """Each chunk of a long run carries its own branch outcomes, so
        the branch side can be applied a slice at a time."""
        strided = MemPattern(PatternKind.STREAM, base=1 << 26, span=1 << 20)
        block = _block_with([strided, strided])
        n = SLICE_ACCESSES + 5
        takens = (
            tuple(i % 3 != 0 for i in range(n)) if random_branch else None
        )
        run = BlockRun(block, n, 7, ends_entry, takens)
        chunks = [chunk for part in batch_slices([run]) for chunk in part]
        assert len(chunks) > 2
        events = [event for chunk in chunks for event in chunk.events()]
        assert events == list(run.events())


# ----------------------------------------------------------------------
# AddressWindows: the functional warmer's packed address streams


def _packed(batch, salt):
    """Per event and pattern: ``(address(k) ^ salt) << 1 | is_write``."""
    return [
        (pat.address(event.k) ^ salt) << 1 | pat.is_write
        for run in batch
        for event in run.events()
        for pat in event.block.mem_patterns
    ]


class TestAddressWindows:
    @given(
        first=st.lists(_patterns, min_size=1, max_size=3),
        others=st.lists(st.lists(_patterns, max_size=3), max_size=3),
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=1, max_value=LOOKAHEAD + 40),
                st.sampled_from(("next", "forward", "back")),
                st.integers(min_value=1, max_value=3 * LOOKAHEAD),
            ),
            min_size=1,
            max_size=10,
        ),
        salt=st.sampled_from((0, 1 << 41)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_event_packing(self, first, others, moves, salt):
        """Every kind, blocks of 0-3 patterns, runs longer than a window,
        a block's ``k_start`` running on, jumping past its windows or
        going back, and one pattern object in two blocks (the first and
        last block share theirs)."""
        blocks = [_block_with(pats) for pats in [first, *others, first[::-1]]]
        next_k = [0] * len(blocks)
        batch = []
        for i, n, move, jump in moves:
            b = i % len(blocks)
            k = next_k[b]
            if move == "forward":
                k += jump
            elif move == "back":
                k = max(k - jump, 0)
            batch.append(BlockRun(blocks[b], n, k, True))
            next_k[b] = k + n
        windows = AddressWindows(salt)
        assert windows.stream(batch) == _packed(batch, salt)
        # The same windows again, a run per call: every run starts
        # behind or ahead of what the first pass left.
        for run in batch:
            assert windows.stream([run]) == _packed([run], salt)


# ----------------------------------------------------------------------
# MavTracker: construction, accumulation, compile/reset


class TestMavTracker:
    def _block(self, seed=11, n_patterns=2):
        b = BlockBuilder(seed=seed)
        pats = [
            b.pattern(PatternKind.REUSE, 8 * 1024, stride=64),
            b.pattern(PatternKind.RANDOM, 1 << 20),
        ][:n_patterns]
        return b.build(ops=16, mix="int", mem_patterns=pats)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            MavTracker(n_buckets=1)
        with pytest.raises(ConfigurationError):
            MavTracker(line_bits=13, page_bits=12)

    def test_record_counts_ops_and_accesses(self):
        tracker = MavTracker(n_buckets=8)
        block = self._block()
        for k in range(5):
            record_event(tracker, block, True, k=k)
        assert tracker.total_ops == 5 * block.n_ops
        assert tracker.total_accesses == 5 * len(block.mem_patterns)
        raw = registers(tracker)
        assert raw.shape == (16,)
        # One line-count and one page-count per dynamic access.
        assert raw[:8].sum() == tracker.total_accesses
        assert raw[8:].sum() == tracker.total_accesses

    def test_take_vector_normalises_and_resets(self):
        tracker = MavTracker(n_buckets=8)
        record_event(tracker, self._block(), True, k=0)
        vec = tracker.take_vector(normalize=True)
        assert math.isclose(float(np.linalg.norm(vec)), 1.0)
        assert not registers(tracker).any()
        # Empty period: the zero vector comes back unscaled.
        assert not tracker.take_vector(normalize=True).any()

    def test_blocks_without_memory_still_count_ops(self):
        b = BlockBuilder(seed=3)
        block = b.build(ops=10, mix="int_light")
        tracker = MavTracker()
        record_event(tracker, block, False, k=4)
        assert tracker.total_ops == block.n_ops
        assert tracker.total_accesses == 0
        assert not registers(tracker).any()

    def test_snapshot_is_compact_and_round_trips(self):
        tracker = MavTracker(n_buckets=8)
        for k in range(9):
            record_event(tracker, self._block(), True, k=k)
        snap = tracker.snapshot()
        assert isinstance(snap["registers"], bytes)
        assert len(snap["registers"]) == 16 * 8  # raw float64 buffer
        other = MavTracker(n_buckets=8)
        other.restore(snap)
        assert np.array_equal(registers(other), registers(tracker))
        assert other.total_ops == tracker.total_ops
        assert other.total_accesses == tracker.total_accesses

    def test_restore_accepts_legacy_list_payload(self):
        """Checkpoints written before the compact form stay restorable."""
        tracker = MavTracker(n_buckets=4)
        legacy = {
            "registers": [float(i) for i in range(8)],
            "total_ops": 123,
            "total_accesses": 7,
        }
        tracker.restore(legacy)
        assert registers(tracker).tolist() == [float(i) for i in range(8)]
        assert tracker.total_ops == 123

    def test_restore_rejects_wrong_width_and_bad_payload(self):
        tracker = MavTracker(n_buckets=8)
        with pytest.raises(ConfigurationError):
            tracker.restore(
                {"registers": [0.0] * 4, "total_ops": 0, "total_accesses": 0}
            )
        with pytest.raises(ConfigurationError):
            tracker.restore(
                {"registers": 3.14, "total_ops": 0, "total_accesses": 0}
            )

    def test_bbv_snapshot_compact_with_legacy_restore(self):
        """The checkpoint-size fix: BBV registers serialise as one raw
        buffer (8 bytes/bucket), while pre-compact list payloads still
        restore — old fleet checkpoints stay valid."""
        b = BlockBuilder(seed=21)
        block = b.build(ops=12, mix="int")
        tracker = BbvTracker()
        record_event(tracker, block, taken=True)
        snap = tracker.snapshot()
        assert isinstance(snap["registers"], bytes)
        assert len(snap["registers"]) == tracker.n_buckets * 8
        legacy = dict(snap, registers=list(registers(tracker)))
        other = BbvTracker()
        other.restore(legacy)
        assert np.array_equal(registers(other), registers(tracker))


# ----------------------------------------------------------------------
# Scalar vs. batched bit-identity — the MAV's batching correctness gate.


def _programs():
    return {
        "two_phase": make_two_phase_program(),
        "adv.stride_flip": get_workload("adv.stride_flip", Scale.QUICK),
        "164.gzip": get_workload("164.gzip", Scale.QUICK),
    }


class TestMavBatchedEquivalence:
    @pytest.mark.parametrize(
        "name", ("two_phase", "adv.stride_flip", "164.gzip")
    )
    def test_full_stream_registers_bit_identical(self, name):
        program = _programs()[name]
        scalar, batched = MavTracker(), MavTracker()
        stream_a, stream_b = ProgramStream(program), ProgramStream(program)
        scalar_record = recorder(scalar)
        for event in stream_a:
            scalar_record(event.block, event.taken, event.k)
        batched.record_batch(stream_b.next_events(10**9))
        assert np.array_equal(registers(scalar), registers(batched))
        assert scalar.total_ops == batched.total_ops
        assert scalar.total_accesses == batched.total_accesses

    @given(
        st.lists(
            st.integers(min_value=1, max_value=20_000),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identity_at_arbitrary_batch_boundaries(self, batches):
        """The hypothesis gate: any batch partition of the stream leaves
        the scalar and batched register files bit-identical."""
        program = make_two_phase_program()
        scalar, batched = MavTracker(), MavTracker()
        stream_a, stream_b = ProgramStream(program), ProgramStream(program)
        scalar_record = recorder(scalar)
        for max_ops in batches:
            got = 0
            while got < max_ops:
                event = stream_a.next_event()
                if event is None:
                    break
                scalar_record(event.block, event.taken, event.k)
                got += event.block.n_ops
            batched.record_batch(stream_b.next_events(max_ops))
            assert np.array_equal(
                registers(scalar), registers(batched)
            )
            assert scalar.total_ops == batched.total_ops

    @pytest.mark.parametrize("signal", PHASE_SIGNALS)
    def test_engine_vector_sequence_identical(self, signal):
        """Period-boundary vectors are bit-identical between the scalar
        and batched engines, for every signal kind."""
        program = get_workload("adv.footprint_step", Scale.QUICK)
        engines = [
            engine_cls(program, signal_tracker=make_signal_tracker(signal))
            for engine_cls in (ScalarEngine, SimulationEngine)
        ]
        while not engines[0].exhausted:
            vecs = []
            for engine in engines:
                engine.run(Mode.FUNC_FAST, 8_000)
                vecs.append(
                    engine.signal_tracker.take_vector(normalize=True)
                )
            assert np.array_equal(vecs[0], vecs[1])
        assert engines[1].exhausted


# ----------------------------------------------------------------------
# ConcatenatedSignal


class TestConcatenatedSignal:
    def _concat(self):
        return ConcatenatedSignal([BbvTracker(), MavTracker(n_buckets=8)])

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            ConcatenatedSignal([])
        with pytest.raises(ConfigurationError):
            ConcatenatedSignal([BbvTracker()], weights=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            ConcatenatedSignal([BbvTracker()], weights=[0.0])

    def test_vector_concatenates_children(self):
        combined = self._concat()
        b = BlockBuilder(seed=9)
        block = b.build(
            ops=12,
            mix="int",
            mem_patterns=[b.pattern(PatternKind.REUSE, 4096, stride=64)],
        )
        for k in range(6):
            record_event(combined, block, True, k=k)
        assert combined.total_ops == 6 * block.n_ops
        vec = combined.take_vector(normalize=True)
        assert vec.shape == (32 + 16,)
        assert math.isclose(float(np.linalg.norm(vec)), 1.0)
        # Equal weights: each child's half carries equal L2 mass.
        assert math.isclose(
            float(np.linalg.norm(vec[:32])), float(np.linalg.norm(vec[32:]))
        )

    def test_snapshot_round_trips_and_rejects_mismatch(self):
        combined = self._concat()
        b = BlockBuilder(seed=9)
        block = b.build(
            ops=12,
            mix="int",
            mem_patterns=[b.pattern(PatternKind.RANDOM, 1 << 16)],
        )
        record_event(combined, block, True, k=3)
        snap = combined.snapshot()
        other = self._concat()
        other.restore(snap)
        assert np.array_equal(registers(other), registers(combined))
        with pytest.raises(ConfigurationError):
            ConcatenatedSignal([MavTracker()]).restore(snap)


# ----------------------------------------------------------------------
# The factory


class TestMakeSignalTracker:
    def test_resolves_each_knob_value(self):
        assert isinstance(make_signal_tracker("bbv"), BbvTracker)
        assert isinstance(make_signal_tracker("mav"), MavTracker)
        assert isinstance(
            make_signal_tracker("concat"), ConcatenatedSignal
        )

    def test_wide_bbv_and_mav_width_knobs(self):
        wide = make_signal_tracker("bbv", wide_bbv_buckets=128)
        assert registers(wide).shape == (128,)
        mav = make_signal_tracker("mav", mav_buckets=16)
        assert registers(mav).shape == (32,)

    def test_unknown_signal_raises(self):
        with pytest.raises(ConfigurationError):
            make_signal_tracker("dbv")


# ----------------------------------------------------------------------
# Sensitivity: what each signal can and cannot see.


def _memory_only_program(ops_per_phase=30_000, seed=7):
    """Two phases running *byte-identical code* over different data.

    The hostile twin strides one L2 way through a 4 MB span, so every
    access conflict-misses, while the friendly original stays inside an
    8 KB reuse window — a large IPC and MAV difference with exactly zero
    control-flow difference.
    """
    b = BlockBuilder(seed=seed)
    friendly = b.build(
        ops=20,
        mix="int_light",
        dep_density=0.1,
        mem_patterns=[b.pattern(PatternKind.REUSE, 8 * 1024, stride=256)],
    )
    hostile = b.twin(
        friendly,
        [b.pattern(PatternKind.REUSE, 32 * 128 * 1024, stride=128 * 1024)],
    )
    behaviors = [
        Behavior("friendly", [(friendly, 25)]),
        Behavior("hostile", [(hostile, 25)]),
    ]
    script = [
        Segment("friendly", ops_per_phase),
        Segment("hostile", ops_per_phase),
        Segment("friendly", ops_per_phase),
        Segment("hostile", ops_per_phase),
    ]
    return Program(
        "memory_only", [friendly, hostile], behaviors, script, seed=seed
    )


def _phases_seen(signal, program, period=10_000, threshold_pi=0.05):
    tracker = make_signal_tracker(signal)
    engine = SimulationEngine(program, signal_tracker=tracker)
    classifier = OnlinePhaseClassifier(threshold_pi * math.pi)
    while not engine.exhausted:
        outcome = engine.run(Mode.FUNC_WARM, period)
        if outcome.ops == 0:
            break
        classifier.observe(tracker.take_vector(normalize=True), outcome.ops)
    return classifier.n_phases


class TestSignalSensitivity:
    def test_twin_blocks_require_matching_store_slots(self):
        b = BlockBuilder(seed=1)
        block = b.build(
            ops=12,
            mix="int",
            mem_patterns=[
                b.pattern(PatternKind.REUSE, 4096, stride=64, is_write=True)
            ],
        )
        with pytest.raises(ProgramError):
            b.twin(block, [b.pattern(PatternKind.REUSE, 4096, stride=64)])
        with pytest.raises(ProgramError):
            b.twin(block, [])

    def test_memory_only_change_invisible_to_bbv(self):
        """The BBV sees one phase: the twins share a branch stream."""
        assert _phases_seen("bbv", _memory_only_program()) == 1

    @pytest.mark.parametrize("signal", ("mav", "concat"))
    def test_memory_only_change_detected_by_memory_signals(self, signal):
        assert _phases_seen(signal, _memory_only_program()) >= 2

    def test_control_flow_change_visible_to_all_signals(self):
        """Sanity check the other direction: an ordinary control-flow
        phase change is visible to every signal (concat by BBV half)."""
        program = make_two_phase_program()
        for signal in PHASE_SIGNALS:
            assert _phases_seen(signal, program) >= 2

    @pytest.mark.parametrize("name", ADVERSARIAL_NAMES)
    def test_adversarial_workloads_are_bbv_blind(self, name):
        """The shipped adversarial workloads have the same property the
        inline twin program demonstrates."""
        program = get_workload(name, Scale.QUICK)
        assert _phases_seen("bbv", program) == 1
        assert _phases_seen("mav", program) >= 2


def _warm_detection(ctx, benchmark, signal, mode=Mode.FUNC_WARM):
    """Oracle for ``signal_ablation._detect``: the same bookkeeping over a
    profile pass in *mode* (FUNC_WARM, the mode it used to run in).

    Returns ``(stats, vectors)``: the detection record and the
    normalised vector the classifier saw in each period."""
    program = ctx.program(benchmark)
    tracker = make_signal_tracker(signal)
    engine = SimulationEngine(program, machine=ctx.machine, signal_tracker=tracker)
    classifier = OnlinePhaseClassifier(signal_ablation.THRESHOLD_PI * math.pi)
    period = ctx.scale.pgss_best_period
    flags, labels, vectors = [], [], []

    def plan():
        while not engine.exhausted:
            outcome = yield ModeSegment(mode, period, role=SegmentRole.PROFILE)
            if outcome.run.ops == 0:
                break
            vectors.append(tracker.take_vector(normalize=True))
            decision = classifier.observe(vectors[-1], outcome.run.ops)
            flags.append(decision.changed or decision.created)
            labels.append(engine.stream.current_behavior_name)

    SamplingSession(engine).execute(plan())
    boundaries = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    detected = sum(
        1 for i in boundaries if flags[i] or (i + 1 < len(flags) and flags[i + 1])
    )
    near = {j for i in boundaries for j in (i, i + 1)}
    false_positives = sum(
        1 for i, flag in enumerate(flags) if flag and i > 0 and i not in near
    )
    stats = {
        "periods": len(flags),
        "boundaries": len(boundaries),
        "detected": detected,
        "rate": detected / len(boundaries) if boundaries else 1.0,
        "false_positives": false_positives,
        "n_phases": classifier.n_phases,
    }
    return stats, vectors


class TestDetectionProfile:
    """The ``ext-signals`` detection pass runs FUNC_FAST: the signal
    vectors and behaviour labels do not depend on cache or predictor
    state, so it must equal the FUNC_WARM pass it replaced."""

    @pytest.mark.parametrize("signal", PHASE_SIGNALS)
    @pytest.mark.parametrize("name", ADVERSARIAL_NAMES)
    def test_func_fast_detection_equals_func_warm_oracle(self, tmp_path, name, signal):
        ctx = ExperimentContext(Scale.QUICK, cache_dir=tmp_path)
        want, warm_vectors = _warm_detection(ctx, name, signal)
        assert signal_ablation._detect(ctx, name, signal) == want
        assert want["boundaries"] > 0
        _, fast_vectors = _warm_detection(ctx, name, signal, mode=Mode.FUNC_FAST)
        assert len(fast_vectors) == len(warm_vectors) == want["periods"]
        for fast, warm in zip(fast_vectors, warm_vectors):
            assert np.array_equal(fast, warm)
