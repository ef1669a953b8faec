"""Tests for the sampling base types, the full-detail reference trace, and
SMARTS/TurboSMARTS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scale
from repro.errors import ConfigurationError, SamplingError
from repro.sampling import (
    FullDetail,
    ReferenceTrace,
    Smarts,
    SmartsConfig,
    TurboSmarts,
    TurboSmartsConfig,
    collect_reference_trace,
)
from repro.sampling.base import SamplingResult

from conftest import make_two_phase_program


@pytest.fixture(scope="module")
def program():
    return make_two_phase_program()


@pytest.fixture(scope="module")
def trace(program):
    return collect_reference_trace(program, window_ops=2_000)


class TestSamplingResult:
    def test_percent_error(self):
        res = SamplingResult("t", "p", ipc_estimate=1.1, detailed_ops=0, total_ops=0)
        assert res.percent_error(1.0) == pytest.approx(10.0)

    def test_repr_mentions_technique(self):
        res = SamplingResult("PGSS", "x", 1.0, 10, 10)
        assert "PGSS" in repr(res)


class TestFullDetail:
    def test_full_detail_is_ground_truth(self, program, trace):
        result = FullDetail().run(program)
        assert result.ipc_estimate == pytest.approx(trace.true_ipc, rel=1e-6)
        assert result.detailed_ops == result.total_ops

    def test_deterministic(self, program):
        r1 = FullDetail().run(program)
        r2 = FullDetail().run(program)
        assert r1.ipc_estimate == r2.ipc_estimate


class TestReferenceTrace:
    def test_window_sums(self, program, trace):
        assert trace.total_ops == sum(trace.ops)
        assert trace.n_windows >= 50
        assert trace.true_ipc == pytest.approx(
            trace.total_ops / trace.total_cycles
        )

    def test_ipcs_shape(self, trace):
        assert trace.ipcs.shape == (trace.n_windows,)
        assert (trace.ipcs > 0).all()

    def test_bbvs_nonnegative(self, trace):
        assert (trace.bbvs >= 0).all()
        assert trace.bbvs.shape[1] == 32

    def test_normalized_rows_unit(self, trace):
        norms = np.linalg.norm(trace.normalized_bbvs(), axis=1)
        nonzero = norms[norms > 0]
        assert np.allclose(nonzero, 1.0)

    def test_aggregate_preserves_totals(self, trace):
        for factor in (2, 3, 7):
            agg = trace.aggregate(factor)
            assert agg.total_ops == trace.total_ops
            assert agg.total_cycles == trace.total_cycles
            assert agg.bbvs.sum() == pytest.approx(trace.bbvs.sum())
            assert agg.true_ipc == pytest.approx(trace.true_ipc)

    def test_aggregate_one_is_identity(self, trace):
        assert trace.aggregate(1) is trace

    def test_aggregate_window_count(self, trace):
        agg = trace.aggregate(4)
        assert agg.n_windows == math.ceil(trace.n_windows / 4)

    def test_to_period(self, trace):
        agg = trace.to_period(8_000)
        assert agg.window_ops_target == 8_000

    def test_to_period_rejects_non_multiple(self, trace):
        with pytest.raises(SamplingError):
            trace.to_period(3_000)

    def test_save_load_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ReferenceTrace.load(path)
        assert loaded.program == trace.program
        assert (loaded.ops == trace.ops).all()
        assert (loaded.bbvs == trace.bbvs).all()
        assert loaded.true_ipc == trace.true_ipc

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(SamplingError):
            ReferenceTrace("x", 100, np.ones(3), np.ones(2), np.ones((3, 4)))

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_aggregate_any_factor_preserves_ipc(self, factor):
        ops = np.arange(1, 30, dtype=np.int64) * 100
        cycles = ops * 2
        bbvs = np.ones((29, 8))
        t = ReferenceTrace("x", 100, ops, cycles, bbvs)
        assert t.aggregate(factor).true_ipc == pytest.approx(0.5)


class TestSmartsConfig:
    def test_from_scale(self):
        cfg = SmartsConfig.from_scale(Scale.QUICK)
        assert cfg.period_ops == Scale.QUICK.smarts_period
        assert cfg.detail_ops == Scale.QUICK.smarts_detail

    def test_rejects_period_smaller_than_sample(self):
        with pytest.raises(ConfigurationError):
            SmartsConfig(period_ops=3_000, detail_ops=1_000, warmup_ops=3_000)

    def test_rejects_zero_detail(self):
        with pytest.raises(ConfigurationError):
            SmartsConfig(period_ops=10_000, detail_ops=0)


class TestSmarts:
    def test_accuracy_on_two_phase(self, program, trace):
        cfg = SmartsConfig(period_ops=4_000, detail_ops=500, warmup_ops=500)
        result = Smarts(cfg).run(program)
        assert result.percent_error(trace.true_ipc) < 15.0
        assert result.n_samples >= 30

    def test_detailed_ops_accounting(self, program):
        cfg = SmartsConfig(period_ops=4_000, detail_ops=500, warmup_ops=500)
        result = Smarts(cfg).run(program)
        per_sample = 1_000  # warm + detail
        assert result.detailed_ops == pytest.approx(
            result.n_samples * per_sample, rel=0.1
        )

    def test_ci_reported(self, program):
        cfg = SmartsConfig(period_ops=4_000, detail_ops=500, warmup_ops=500)
        result = Smarts(cfg).run(program)
        assert result.ci is not None
        assert result.ci.n == result.n_samples

    def test_sample_offsets_periodic(self, program):
        cfg = SmartsConfig(period_ops=8_000, detail_ops=500, warmup_ops=500)
        samples, _ = Smarts(cfg).collect_samples(program)
        offsets = [s.op_offset for s in samples]
        gaps = np.diff(offsets)
        assert np.abs(gaps - 8_000).max() < 500  # block-granularity jitter

    def test_polymodal_population(self, program):
        """The two-phase program produces the polymodal sample population
        of the paper's Fig. 3 argument."""
        cfg = SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500)
        samples, _ = Smarts(cfg).collect_samples(program)
        ipcs = np.array([s.ipc for s in samples])
        spread = ipcs.max() / max(ipcs.min(), 1e-9)
        assert spread > 3  # samples straddle the fast and slow phases


class TestTurboSmarts:
    def test_consumes_subset_when_loose_bound(self, program):
        cfg = TurboSmartsConfig(
            smarts=SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500),
            rel_error=0.5,
            confidence=0.90,
            min_samples=5,
        )
        result = TurboSmarts(cfg).run(program)
        assert result.extras["converged"]
        assert result.n_samples < result.extras["universe_size"]

    def test_consumes_everything_when_impossible_bound(self, program):
        cfg = TurboSmartsConfig(
            smarts=SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500),
            rel_error=1e-6,
        )
        result = TurboSmarts(cfg).run(program)
        assert not result.extras["converged"]
        assert result.n_samples == result.extras["universe_size"]

    def test_detailed_cost_counts_consumed_only(self, program):
        cfg = TurboSmartsConfig(
            smarts=SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500),
            rel_error=0.5,
            confidence=0.90,
            min_samples=5,
        )
        result = TurboSmarts(cfg).run(program)
        assert result.detailed_ops == result.n_samples * 1_000

    def test_random_order_seed_matters(self, program):
        def run(seed):
            cfg = TurboSmartsConfig(
                smarts=SmartsConfig(
                    period_ops=3_000, detail_ops=500, warmup_ops=500
                ),
                rel_error=0.35,
                confidence=0.90,
                min_samples=5,
                seed=seed,
            )
            return TurboSmarts(cfg).run(program)

        estimates = {round(run(seed).ipc_estimate, 6) for seed in range(5)}
        assert len(estimates) > 1

    def test_estimate_close_to_smarts_with_full_universe(self, program):
        smarts_cfg = SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500)
        full = Smarts(smarts_cfg).run(program)
        turbo = TurboSmarts(
            TurboSmartsConfig(smarts=smarts_cfg, rel_error=1e-6)
        ).run(program)
        assert turbo.ipc_estimate == pytest.approx(full.ipc_estimate, rel=1e-6)

    def test_config_validation(self):
        base = SmartsConfig(period_ops=3_000, detail_ops=500, warmup_ops=500)
        with pytest.raises(ConfigurationError):
            TurboSmartsConfig(smarts=base, rel_error=0.0)
        with pytest.raises(ConfigurationError):
            TurboSmartsConfig(smarts=base, confidence=2.0)
        with pytest.raises(ConfigurationError):
            TurboSmartsConfig(smarts=base, min_samples=1)


class TestStreamExhaustedGuard:
    def test_collect_trace_rejects_bad_window(self, program):
        with pytest.raises(SamplingError):
            collect_reference_trace(program, window_ops=0)
