"""Tests for the paper's future-work extensions: multicore PGSS and the
step-wise PGSS controller."""

import pytest

from repro import Scale, get_workload
from repro.config import MachineConfig
from repro.cpu import Mode, MultiCoreEngine, MultiCorePgss
from repro.errors import ConfigurationError
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
        assert all(engine.exhausted for engine in mc.engines)
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
