"""Tests for the paper's future-work extensions: multicore PGSS and
phase-transition refinement."""

import math

import numpy as np
import pytest

from repro import Scale, get_workload
from repro.config import MachineConfig
from repro.cpu import Mode, MultiCoreEngine, MultiCorePgss
from repro.errors import ConfigurationError, SamplingError
from repro.phase import OnlinePhaseClassifier, TransitionRefiner
from repro.sampling import FullDetail, PgssConfig
from repro.sampling.pgss import PgssController
from repro.cpu.engine import SimulationEngine

from conftest import make_two_phase_program


class TestMultiCoreEngine:
    def test_requires_programs(self):
        with pytest.raises(ConfigurationError):
            MultiCoreEngine([])

    def test_rejects_bad_slice(self):
        with pytest.raises(ConfigurationError):
            MultiCoreEngine([make_two_phase_program()], slice_ops=0)

    def test_cores_share_one_l2(self):
        mc = MultiCoreEngine(
            [make_two_phase_program(seed=1), make_two_phase_program(seed=2)]
        )
        assert mc.engines[0].hierarchy.l2 is mc.engines[1].hierarchy.l2
        assert mc.engines[0].hierarchy.l1d is not mc.engines[1].hierarchy.l1d

    def test_run_all_completes_every_core(self):
        programs = [
            get_workload("177.mesa", Scale.QUICK),
            get_workload("181.mcf", Scale.QUICK),
        ]
        mc = MultiCoreEngine(programs)
        results = mc.run_all(Mode.DETAIL)
        assert mc.all_exhausted
        assert len(results) == 2
        for result, program in zip(results, programs):
            assert result.ops >= program.total_ops * 0.9
            assert result.ipc > 0

    def test_shared_l2_interference_slows_cores(self):
        """Two L2-hungry co-runners run slower than solo — the first-order
        CMP effect the extension models."""
        small_l2 = MachineConfig().scaled_cache(64, 256)

        def solo(name):
            return FullDetail(machine=small_l2).run(
                get_workload(name, Scale.QUICK)
            ).ipc_estimate

        solo_ipcs = {n: solo(n) for n in ("256.bzip2", "183.equake")}
        mc = MultiCoreEngine(
            [
                get_workload("256.bzip2", Scale.QUICK),
                get_workload("183.equake", Scale.QUICK),
            ],
            machine=small_l2,
        )
        co = {r.program: r.ipc for r in mc.run_all(Mode.DETAIL)}
        # At least one co-runner must lose noticeable performance.
        losses = [solo_ipcs[n] / co[n] for n in solo_ipcs]
        assert max(losses) > 1.02, losses

    def test_single_core_matches_plain_engine(self):
        program = make_two_phase_program()
        mc = MultiCoreEngine([make_two_phase_program()])
        mc_result = mc.run_all(Mode.DETAIL)[0]
        solo = FullDetail().run(program)
        assert mc_result.ipc == pytest.approx(solo.ipc_estimate, rel=1e-9)


class TestMultiCorePgss:
    def test_per_core_results(self):
        cfg = PgssConfig.from_scale(Scale.QUICK)
        runner = MultiCorePgss(lambda core: cfg)
        out = runner.run(
            [
                get_workload("177.mesa", Scale.QUICK),
                get_workload("181.mcf", Scale.QUICK),
            ]
        )
        assert set(out) == {0, 1}
        for result in out.values():
            assert result.ipc_estimate > 0
            assert result.extras["n_phases"] >= 1
            assert result.detailed_ops > 0

    def test_estimates_track_cmp_ground_truth(self):
        programs = [
            get_workload("177.mesa", Scale.QUICK),
            get_workload("164.gzip", Scale.QUICK),
        ]
        truth = {
            r.core: r.ipc
            for r in MultiCoreEngine(
                [get_workload("177.mesa", Scale.QUICK),
                 get_workload("164.gzip", Scale.QUICK)]
            ).run_all(Mode.DETAIL)
        }
        cfg = PgssConfig.from_scale(Scale.QUICK)
        out = MultiCorePgss(lambda core: cfg).run(programs)
        for core, result in out.items():
            err = abs(result.ipc_estimate - truth[core]) / truth[core]
            # QUICK-scale sampling noise is large; the SCALED operating
            # point is exercised by the benchmark harness.
            assert err < 0.5, (core, err)

    def test_per_core_configs(self):
        configs = {
            0: PgssConfig.from_scale(Scale.QUICK, threshold_pi=0.05),
            1: PgssConfig.from_scale(Scale.QUICK, threshold_pi=0.25),
        }
        out = MultiCorePgss(lambda core: configs[core]).run(
            [
                get_workload("183.equake", Scale.QUICK),
                get_workload("183.equake", Scale.QUICK),
            ]
        )
        assert out[0].extras["config"].endswith(".05")
        assert out[1].extras["config"].endswith(".25")


class TestPgssController:
    def test_requires_tracker(self, two_phase_program):
        engine = SimulationEngine(two_phase_program)
        with pytest.raises(ConfigurationError):
            PgssController(engine, PgssConfig.from_scale(Scale.QUICK))

    def test_step_until_done_matches_run(self, two_phase_program):
        from repro.sampling import Pgss

        cfg = PgssConfig.from_scale(Scale.QUICK, bbv_period_ops=4_000)
        direct = Pgss(cfg).run(two_phase_program)

        tech = Pgss(cfg)
        engine = SimulationEngine(
            make_two_phase_program(), signal_tracker=tech._make_tracker()
        )
        controller = PgssController(engine, cfg)
        steps = 0
        while controller.step():
            steps += 1
        stepped = controller.result()
        assert steps > 5
        assert stepped.ipc_estimate == pytest.approx(direct.ipc_estimate)
        assert stepped.detailed_ops == direct.detailed_ops

    def test_result_before_finish_wraps_up(self, two_phase_program):
        cfg = PgssConfig.from_scale(Scale.QUICK, bbv_period_ops=4_000)
        from repro.sampling import Pgss

        engine = SimulationEngine(
            two_phase_program, signal_tracker=Pgss(cfg)._make_tracker()
        )
        controller = PgssController(engine, cfg)
        for _ in range(3):
            controller.step()
        result = controller.result()
        assert result.ipc_estimate > 0

    def test_step_after_finish_returns_false(self, two_phase_program):
        from repro.sampling import Pgss

        cfg = PgssConfig.from_scale(Scale.QUICK, bbv_period_ops=4_000)
        engine = SimulationEngine(
            two_phase_program, signal_tracker=Pgss(cfg)._make_tracker()
        )
        controller = PgssController(engine, cfg)
        while controller.step():
            pass
        assert controller.step() is False


class TestTransitionRefiner:
    def _series(self, boundary_window=10, n=20, dim=8):
        """Fine windows: phase A then phase B at *boundary_window*."""
        a = np.zeros(dim)
        a[0] = 1.0
        b = np.zeros(dim)
        b[1] = 1.0
        bbvs = [a] * boundary_window + [b] * (n - boundary_window)
        ops = [100] * n
        return bbvs, ops

    def test_finds_exact_boundary(self):
        bbvs, ops = self._series(boundary_window=10)
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=5)
        # Coarse period 2 (windows 10-14) differs from period 1 (5-9).
        refined = refiner.refine(2)
        assert refined.fine_window == 10
        assert refined.op_offset == 1000
        assert refined.angle == pytest.approx(math.pi / 2)

    def test_boundary_error_metric(self):
        bbvs, ops = self._series(boundary_window=10)
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=5)
        refined = refiner.refine(2)
        assert refiner.boundary_error_ops(refined, 1000) == 0
        assert refiner.boundary_error_ops(refined, 1250) == 250

    def test_refinement_beats_period_granularity(self):
        """The refined boundary is closer to the truth than the coarse
        period start can guarantee."""
        bbvs, ops = self._series(boundary_window=13, n=30)
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=5)
        refined = refiner.refine(3)  # periods of 5: change seen in period 3
        assert refined.op_offset == 1300
        coarse_error = abs(3 * 5 * 100 - 1300)  # period-granularity guess
        assert refiner.boundary_error_ops(refined, 1300) <= coarse_error

    def test_refine_all_skips_bad(self):
        bbvs, ops = self._series()
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=5)
        out = refiner.refine_all([2, 999])
        assert len(out) == 1

    def test_validation(self):
        with pytest.raises(SamplingError):
            TransitionRefiner([np.ones(4)], [1, 2], windows_per_period=2)
        bbvs, ops = self._series()
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=5)
        with pytest.raises(SamplingError):
            refiner.refine(0)

    def test_integrates_with_classifier(self):
        """End to end: classifier detects the change at period grain, the
        refiner pins it to the window grain."""
        bbvs, ops = self._series(boundary_window=12, n=30)
        wpp = 5
        classifier = OnlinePhaseClassifier(0.05 * math.pi)
        changes = []
        for period in range(len(bbvs) // wpp):
            agg = np.sum(bbvs[period * wpp : (period + 1) * wpp], axis=0)
            agg = agg / np.linalg.norm(agg)
            decision = classifier.observe(agg, 500)
            if decision.changed or (decision.created and period > 0):
                changes.append(period)
        assert changes, "classifier must notice the phase change"
        refiner = TransitionRefiner(bbvs, ops, windows_per_period=wpp)
        refined = refiner.refine(changes[0])
        assert refiner.boundary_error_ops(refined, 1200) <= 100
