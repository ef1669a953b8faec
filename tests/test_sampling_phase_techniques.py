"""Tests for SimPoint, Online SimPoint, and PGSS-Sim."""

import pytest

from repro import Scale
from repro.config import DEFAULT_MACHINE
from repro.cpu import OutcomeRecord
from repro.errors import ConfigurationError, SamplingError
from repro.program import get_workload
from repro.sampling import (
    OnlineSimPoint,
    OnlineSimPointConfig,
    Pgss,
    PgssConfig,
    SimPoint,
    SimPointConfig,
    collect_reference_trace,
)
from repro.sampling.session import measure_intervals

from conftest import make_two_phase_program


@pytest.fixture(scope="module")
def program():
    return make_two_phase_program()


@pytest.fixture(scope="module")
def trace(program):
    return collect_reference_trace(program, window_ops=2_000)


class TestSimPointConfig:
    def test_label(self):
        assert SimPointConfig(100_000, 10).label == "10x100k"
        assert SimPointConfig(1_000_000, 5).label == "5x1M"
        assert SimPointConfig(100_000).label == "bic20x100k"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimPointConfig(0, 5)
        with pytest.raises(ConfigurationError):
            SimPointConfig(1000, 0)
        with pytest.raises(ConfigurationError):
            SimPointConfig(1000, max_k=0)


class TestSimPoint:
    def test_accuracy_with_trace(self, program, trace):
        result = SimPoint(SimPointConfig(8_000, 4)).run(program, trace=trace)
        assert result.percent_error(trace.true_ipc) < 20.0
        assert result.n_samples <= 4

    def test_detailed_cost_is_k_times_interval(self, program, trace):
        cfg = SimPointConfig(8_000, 4)
        result = SimPoint(cfg).run(program, trace=trace)
        assert result.detailed_ops == result.n_samples * cfg.interval_ops

    def test_weights_sum_to_one(self, program, trace):
        result = SimPoint(SimPointConfig(8_000, 4)).run(program, trace=trace)
        assert sum(result.extras["weights"].values()) == pytest.approx(1.0)

    def test_live_two_pass_close_to_trace_mode(self, program, trace):
        cfg = SimPointConfig(8_000, 3, seed=5)
        via_trace = SimPoint(cfg).run(program, trace=trace)
        live = SimPoint(cfg).run(program)
        # The live second pass warms functionally, so interval IPCs match
        # the trace-derived values closely (not exactly: the trace's
        # intervals were measured inside one continuous detailed run).
        assert live.ipc_estimate == pytest.approx(
            via_trace.ipc_estimate, rel=0.15
        )

    def test_too_many_clusters_rejected(self, program, trace):
        with pytest.raises(SamplingError):
            SimPoint(SimPointConfig(trace.total_ops, 5)).run(program, trace=trace)

    @pytest.mark.parametrize(
        "name,interval",
        [
            (name, interval)
            for name in ("164.gzip", "181.mcf", "300.twolf", "183.equake")
            for interval in Scale.QUICK.simpoint_intervals
        ],
    )
    def test_live_representatives_are_measured_whole(self, name, interval):
        """The live second pass simulates each representative interval
        whole: it cuts the stream with the profile's ``next_events``
        sequence, so every sample's ops are its interval's profiled ops."""
        technique = SimPoint(SimPointConfig(interval, 3))
        intervals = technique.profile_intervals(get_workload(name, Scale.QUICK))
        _, reps = technique.simulation_points(intervals)
        wanted = sorted({int(r) for r in reps if r >= 0})
        record = OutcomeRecord(get_workload(name, Scale.QUICK), DEFAULT_MACHINE)
        measured, accounting = measure_intervals(
            record, wanted, interval, warmup_ops=0, detail_ops=interval
        )
        assert sorted(measured) == wanted
        for index, (ops, _cycles) in measured.items():
            assert ops == intervals.ops[index]
        accounting.merge(record.engine.accounting)
        result = technique.run(get_workload(name, Scale.QUICK))
        assert result.n_samples == len(wanted)
        assert result.accounting.ops == accounting.ops

    def test_profile_intervals_live(self, program):
        cfg = SimPointConfig(8_000, 3)
        intervals = SimPoint(cfg).profile_intervals(program)
        assert intervals.n_windows >= 10
        assert (intervals.cycles == 0).all()

    def test_bic_mode_picks_reasonable_k(self, program, trace):
        """SimPoint 3.0 BIC selection: the two-phase program needs few
        clusters, and the chosen k is reported in extras."""
        result = SimPoint(SimPointConfig(4_000, max_k=8)).run(
            program, trace=trace
        )
        assert 2 <= result.extras["n_clusters"] <= 8
        assert result.percent_error(trace.true_ipc) < 20.0
        assert result.detailed_ops == result.extras["n_clusters"] * 4_000

    def test_two_phase_program_clusters_match_phases(self, program, trace):
        """k=2 on the two-phase program: cluster weights mirror the 50/50
        phase split."""
        result = SimPoint(SimPointConfig(4_000, 2)).run(program, trace=trace)
        weights = sorted(result.extras["weights"].values())
        assert weights[0] == pytest.approx(0.5, abs=0.15)


class TestOnlineSimPoint:
    def test_label(self):
        assert OnlineSimPointConfig(8_000, 0.10).label == "8k/.10"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineSimPointConfig(0, 0.1)
        with pytest.raises(ConfigurationError):
            OnlineSimPointConfig(1000, 0.0)

    def test_finds_both_phases(self, program, trace):
        result = OnlineSimPoint(OnlineSimPointConfig(4_000, 0.10)).run(
            program, trace=trace
        )
        assert result.extras["n_phases"] >= 2
        assert result.n_samples == result.extras["n_phases"]

    def test_detailed_cost(self, program, trace):
        cfg = OnlineSimPointConfig(4_000, 0.10)
        result = OnlineSimPoint(cfg).run(program, trace=trace)
        assert result.detailed_ops == result.n_samples * cfg.interval_ops

    def test_reasonable_accuracy(self, program, trace):
        result = OnlineSimPoint(OnlineSimPointConfig(4_000, 0.10)).run(
            program, trace=trace
        )
        assert result.percent_error(trace.true_ipc) < 30.0

    def test_live_mode_runs(self, program, trace):
        result = OnlineSimPoint(OnlineSimPointConfig(8_000, 0.10)).run(program)
        assert result.ipc_estimate > 0


class TestPgssConfig:
    def test_from_scale_defaults(self):
        cfg = PgssConfig.from_scale(Scale.QUICK)
        assert cfg.bbv_period_ops == Scale.QUICK.pgss_best_period
        assert cfg.threshold_pi == 0.05
        assert cfg.detail_ops == Scale.QUICK.smarts_detail

    def test_from_scale_overrides(self):
        cfg = PgssConfig.from_scale(
            Scale.QUICK, bbv_period_ops=24_000, threshold_pi=0.25, spread_ops=1
        )
        assert cfg.bbv_period_ops == 24_000
        assert cfg.threshold_pi == 0.25
        assert cfg.spread_ops == 1

    def test_label(self):
        cfg = PgssConfig(bbv_period_ops=80_000, threshold_pi=0.05)
        assert cfg.label == "80k/.05"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PgssConfig(bbv_period_ops=3_000, threshold_pi=0.05)  # < warm+detail
        with pytest.raises(ConfigurationError):
            PgssConfig(bbv_period_ops=50_000, threshold_pi=0.0)
        with pytest.raises(ConfigurationError):
            PgssConfig(bbv_period_ops=50_000, threshold_pi=0.05, min_samples=0)
        with pytest.raises(ConfigurationError):
            PgssConfig(
                bbv_period_ops=50_000, threshold_pi=0.05, fixed_samples_per_phase=0
            )


class TestPgss:
    def _config(self, **overrides):
        overrides.setdefault("spread_ops", 8_000)
        return PgssConfig.from_scale(Scale.QUICK, bbv_period_ops=4_000, **overrides)

    def test_finds_the_two_phases(self, program, trace):
        result = Pgss(self._config()).run(program)
        assert result.extras["n_phases"] >= 2

    def test_accuracy(self, program, trace):
        result = Pgss(self._config()).run(program)
        assert result.percent_error(trace.true_ipc) < 15.0

    def test_uses_less_detail_than_program(self, program):
        result = Pgss(self._config()).run(program)
        assert 0 < result.detailed_ops < program.total_ops / 4

    def test_every_phase_gets_samples(self, program):
        result = Pgss(self._config()).run(program)
        per_phase = result.extras["samples_per_phase"]
        sampled = [p for p, n in per_phase.items() if n > 0]
        assert len(sampled) >= 2

    def test_spread_rule_limits_sampling(self, program):
        dense = Pgss(self._config(spread_ops=0)).run(program)
        sparse = Pgss(self._config(spread_ops=40_000)).run(program)
        assert sparse.n_samples < dense.n_samples

    def test_spread_rule_ablation_flag(self, program):
        on = Pgss(self._config(spread_ops=40_000, use_spread_rule=True)).run(program)
        off = Pgss(self._config(spread_ops=40_000, use_spread_rule=False)).run(program)
        assert off.n_samples >= on.n_samples

    def test_fixed_samples_per_phase(self, program):
        result = Pgss(
            self._config(fixed_samples_per_phase=2, spread_ops=0)
        ).run(program)
        per_phase = result.extras["samples_per_phase"]
        assert all(n <= 2 for n in per_phase.values())

    def test_confidence_stopping_reduces_samples(self, program):
        loose = Pgss(self._config(rel_error=0.8, min_samples=2, spread_ops=0)).run(
            program
        )
        tight = Pgss(self._config(rel_error=1e-9, spread_ops=0)).run(program)
        assert loose.n_samples < tight.n_samples

    def test_wide_bbv_variant(self, program, trace):
        result = Pgss(self._config(wide_bbv_buckets=256)).run(program)
        assert result.percent_error(trace.true_ipc) < 25.0

    def test_manhattan_metric_variant(self, program):
        cfg = self._config(metric="manhattan", threshold_pi=0.15)
        result = Pgss(cfg).run(program)
        assert result.ipc_estimate > 0

    def test_deterministic(self, program):
        r1 = Pgss(self._config()).run(program)
        r2 = Pgss(self._config()).run(program)
        assert r1.ipc_estimate == r2.ipc_estimate
        assert r1.detailed_ops == r2.detailed_ops

    def test_detailed_ops_matches_accounting(self, program):
        result = Pgss(self._config()).run(program)
        assert result.detailed_ops == result.accounting.detailed_ops

    def test_total_ops_covers_program(self, program):
        result = Pgss(self._config()).run(program)
        assert result.total_ops >= program.total_ops
