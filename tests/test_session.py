"""Unit tests for the sampling-session kernel and event bus."""

import pytest

from repro import EstimateError, ReproError, Scale, SimulationEngine
from repro.cpu import Mode
from repro.program import get_workload
from repro.events import (
    EstimateUpdated,
    EventBus,
    PhaseChange,
    SampleTaken,
    SegmentEnd,
    SegmentStart,
    SessionEvent,
)
from repro.sampling import (
    PAUSE,
    ModeSegment,
    SamplingResult,
    SamplingSession,
    SamplingTechnique,
    SegmentRole,
    SessionDriver,
    collect_reference_trace,
    periodic_plan,
    run_to_end_plan,
)

from _golden import SCALE, technique_matrix
from conftest import make_two_phase_program


class TestEventBus:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SampleTaken, seen.append)
        event = SampleTaken(index=0, op_offset=10, ops=5, cycles=4)
        bus.emit(event)
        assert seen == [event]

    def test_handlers_only_see_their_type(self):
        bus = EventBus()
        samples, segments = [], []
        bus.subscribe(SampleTaken, samples.append)
        bus.subscribe(SegmentStart, segments.append)
        bus.emit(SampleTaken(index=0, op_offset=0, ops=1, cycles=1))
        assert len(samples) == 1 and len(segments) == 0

    def test_base_class_subscription_sees_subclasses(self):
        bus = EventBus()
        everything = []
        bus.subscribe(SessionEvent, everything.append)
        bus.emit(SampleTaken(index=0, op_offset=0, ops=1, cycles=1))
        bus.emit(PhaseChange(phase_id=1, previous_phase_id=0, created=False,
                             distance=0.5, n_observations=3))
        assert len(everything) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SampleTaken, seen.append)
        bus.unsubscribe(SampleTaken, seen.append)
        bus.emit(SampleTaken(index=0, op_offset=0, ops=1, cycles=1))
        assert seen == []

    def test_sample_ipc_property(self):
        assert SampleTaken(index=0, op_offset=0, ops=8, cycles=4).ipc == 2.0


class TestSamplingSession:
    def _engine(self):
        return SimulationEngine(make_two_phase_program())

    def test_measured_segment_records_sample(self):
        session = SamplingSession(self._engine())
        outcome = session.run_segment(
            ModeSegment(Mode.DETAIL, 500, role=SegmentRole.SAMPLE, measure=True)
        )
        assert outcome.sample is not None
        assert session.n_samples == 1
        assert session.samples[0].op_offset == 0
        assert outcome.sample.ops >= 500

    def test_unmeasured_segment_records_nothing(self):
        session = SamplingSession(self._engine())
        outcome = session.run_segment(ModeSegment(Mode.FUNC_FAST, 1_000))
        assert outcome.sample is None
        assert session.n_samples == 0
        assert outcome.end_offset >= 1_000

    def test_segment_events_emitted_in_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(SegmentStart, lambda e: order.append("start"))
        bus.subscribe(SegmentEnd, lambda e: order.append("end"))
        bus.subscribe(SampleTaken, lambda e: order.append("sample"))
        session = SamplingSession(self._engine(), bus=bus)
        session.run_segment(ModeSegment(Mode.DETAIL, 500, measure=True))
        assert order == ["start", "end", "sample"]

    def test_offsets_are_program_global(self):
        session = SamplingSession(self._engine())
        session.run_segment(ModeSegment(Mode.FUNC_FAST, 2_000))
        outcome = session.run_segment(
            ModeSegment(Mode.DETAIL, 500, measure=True)
        )
        assert outcome.start_offset >= 2_000
        assert outcome.sample.op_offset == outcome.start_offset


class TestSessionDriver:
    def test_plan_without_pauses_completes_in_one_step(self):
        engine = SimulationEngine(make_two_phase_program())
        session = SamplingSession(engine)
        driver = session.driver(run_to_end_plan(Mode.FUNC_FAST, 10_000))
        assert driver.step() is False
        assert driver.done
        assert engine.exhausted

    def test_pause_yields_control_between_iterations(self):
        engine = SimulationEngine(make_two_phase_program())
        session = SamplingSession(engine)

        def plan():
            for _ in range(3):
                yield ModeSegment(Mode.FUNC_FAST, 1_000)
                yield PAUSE

        driver = SessionDriver(session, plan())
        steps = 0
        while driver.step():
            steps += 1
        assert steps == 3

    def test_outcome_is_sent_back_into_the_plan(self):
        engine = SimulationEngine(make_two_phase_program())
        session = SamplingSession(engine)
        got = []

        def plan():
            outcome = yield ModeSegment(Mode.FUNC_FAST, 1_000)
            got.append(outcome)

        session.execute(plan())
        assert got[0].run.ops >= 1_000
        assert got[0].start_offset == 0

    def test_step_after_done_returns_false(self):
        engine = SimulationEngine(make_two_phase_program())
        session = SamplingSession(engine)
        driver = session.driver(run_to_end_plan(Mode.FUNC_FAST))
        driver.run()
        assert driver.step() is False

    def test_periodic_plan_shape(self):
        engine = SimulationEngine(make_two_phase_program())
        session = SamplingSession(engine)
        session.execute(periodic_plan(Mode.FUNC_WARM, 7_000, 500, 500))
        assert session.n_samples > 5
        offsets = [s.op_offset for s in session.samples]
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(abs(g - 8_000) < 600 for g in gaps)


class TestPercentError:
    def test_zero_true_ipc_raises_estimate_error(self):
        result = SamplingResult(
            technique="x", program="p", ipc_estimate=1.0,
            detailed_ops=0, total_ops=0,
        )
        with pytest.raises(EstimateError):
            result.percent_error(0.0)

    def test_estimate_error_is_value_error_and_repro_error(self):
        result = SamplingResult(
            technique="x", program="p", ipc_estimate=1.0,
            detailed_ops=0, total_ops=0,
        )
        with pytest.raises(ValueError):
            result.percent_error(0.0)
        with pytest.raises(ReproError):
            result.percent_error(0.0)

    def test_nonzero_reference_still_works(self):
        result = SamplingResult(
            technique="x", program="p", ipc_estimate=1.1,
            detailed_ops=0, total_ops=0,
        )
        assert result.percent_error(1.0) == pytest.approx(10.0)


class TestAbstractTechnique:
    def test_cannot_instantiate_without_run(self):
        class Incomplete(SamplingTechnique):
            name = "incomplete"

        with pytest.raises(TypeError):
            Incomplete()

    def test_subclass_with_run_instantiates(self):
        class Complete(SamplingTechnique):
            name = "complete"

            def run(self, program, **kwargs):
                return SamplingResult(
                    technique=self.name, program=program.name,
                    ipc_estimate=0.0, detailed_ops=0, total_ops=0,
                )

        assert Complete().name == "complete"


@pytest.fixture(scope="module")
def gzip_trace():
    """The golden workload's reference trace (for ``uses_trace`` runs)."""
    return collect_reference_trace(
        get_workload("164.gzip", SCALE), SCALE.trace_window
    )


class TestTechniqueEvents:
    @pytest.mark.parametrize("label", sorted(technique_matrix()))
    def test_one_final_estimate_matching_the_result(self, label, gzip_trace):
        """Every technique ends with one final EstimateUpdated that
        carries its result's IPC and sample count."""
        technique = technique_matrix()[label]
        bus = EventBus()
        estimates = []
        bus.subscribe(EstimateUpdated, estimates.append)
        program = get_workload("164.gzip", SCALE)
        if technique.uses_trace:
            result = technique.run(program, trace=gzip_trace, bus=bus)
        else:
            result = technique.run(program, bus=bus)
        assert [e.final for e in estimates].count(True) == 1
        final = estimates[-1]
        assert final.final
        assert final.technique == result.technique
        assert final.ipc == result.ipc_estimate
        assert final.n_samples == result.n_samples

    def test_pgss_emits_phase_and_sample_events(self):
        from repro.sampling import Pgss, PgssConfig

        bus = EventBus()
        samples, phases, estimates = [], [], []
        bus.subscribe(SampleTaken, samples.append)
        bus.subscribe(PhaseChange, phases.append)
        bus.subscribe(EstimateUpdated, estimates.append)
        cfg = PgssConfig.from_scale(Scale.QUICK)
        result = Pgss(cfg).run(make_two_phase_program(), bus=bus)
        assert len(samples) == result.n_samples
        assert [s.op_offset for s in samples] == sorted(
            s.op_offset for s in samples
        )
        assert len(phases) >= result.extras["n_phases"]
        assert estimates and estimates[-1].final
        assert estimates[-1].ipc == result.ipc_estimate

    def test_smarts_sample_events_match_result(self):
        from repro.sampling import Smarts, SmartsConfig

        bus = EventBus()
        samples = []
        bus.subscribe(SampleTaken, samples.append)
        cfg = SmartsConfig.from_scale(Scale.QUICK)
        result = Smarts(cfg).run(make_two_phase_program(), bus=bus)
        assert len(samples) == result.n_samples


class TestAdaptiveSelectorEvents:
    def test_select_emits_threshold_selected(self):
        import numpy as np

        from repro.events import ThresholdSelected
        from repro.phase import AdaptiveThresholdSelector

        rng = np.random.default_rng(3)
        bbvs = []
        for i in range(12):
            v = np.zeros(8)
            v[i % 2] = 1.0
            v += rng.normal(0, 0.01, 8)
            bbvs.append(v / np.linalg.norm(v))
        chosen = []
        bus = EventBus()
        bus.subscribe(ThresholdSelected, chosen.append)
        selector = AdaptiveThresholdSelector(bus=bus)
        threshold = selector.select(bbvs)
        assert len(chosen) == 1
        assert chosen[0].threshold == threshold
