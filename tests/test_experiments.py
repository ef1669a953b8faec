"""Tests for the experiment harness: cache, context, and figure modules.

Figure modules run at QUICK scale on a two-benchmark subset so the suite
stays fast; the full ten-benchmark reproduction lives in ``benchmarks/``.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config import DEFAULT_MACHINE, Scale
from repro.experiments import ExperimentContext, ResultCache
from repro.experiments import (
    fig01_timeline as fig01,
    fig02_sampling_granularity as fig02,
    fig03_ipc_distribution as fig03,
    fig07_change_distribution as fig07,
    fig08_detection_rate as fig08,
    fig09_false_positives as fig09,
    fig10_twolf_threshold as fig10,
    fig11_pgss_sweep as fig11,
    fig12_technique_comparison as fig12,
    fig13_simulation_time as fig13,
)
from repro.sampling import (
    OnlineSimPoint,
    OnlineSimPointConfig,
    SamplingResult,
    SamplingTechnique,
    SimPoint,
    SimPointConfig,
    Smarts,
    SmartsConfig,
)
from repro.stats.sampling_theory import stratified_mean_ci


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """Shared QUICK-scale context over a small benchmark subset."""
    return ExperimentContext(
        Scale.QUICK,
        cache_dir=tmp_path_factory.mktemp("expcache"),
        benchmarks=["164.gzip", "300.twolf"],
    )


class TestResultCache:
    def test_json_roundtrip(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return {"x": 42}

        first = cache.json({"k": 1}, compute)
        second = cache.json({"k": 1}, compute)
        assert first == second == {"x": 42}
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_different_payloads_different_entries(self, cache):
        a = cache.json({"k": 1}, lambda: {"v": "a"})
        b = cache.json({"k": 2}, lambda: {"v": "b"})
        assert a != b

    def test_key_is_stable_under_ordering(self, cache):
        assert cache.key({"a": 1, "b": 2}) == cache.key({"b": 2, "a": 1})

    def test_clear(self, cache):
        cache.json({"k": 1}, lambda: {})
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_files_are_valid_json(self, cache):
        cache.json({"k": 1}, lambda: {"deep": {"x": [1, 2]}})
        files = list(cache.directory.glob("*.json"))
        assert len(files) == 1
        with files[0].open() as fh:
            assert json.load(fh) == {"deep": {"x": [1, 2]}}


class TestExperimentContext:
    def test_trace_cached_on_disk(self, ctx):
        t1 = ctx.trace("164.gzip")
        t2 = ctx.trace("164.gzip")
        assert t1.true_ipc == t2.true_ipc
        assert any(ctx.cache.directory.glob("*.npz"))

    def test_true_ipc_positive(self, ctx):
        assert ctx.true_ipc("164.gzip") > 0

    def test_run_cached_roundtrip(self, ctx):
        tech = Smarts(SmartsConfig.from_scale(ctx.scale))
        r1 = ctx.run_cached("164.gzip", tech)
        r2 = ctx.run_cached("164.gzip", tech)
        assert r1 == r2
        assert r1["technique"] == "SMARTS"
        assert r1["ipc_estimate"] > 0

    def test_run_cached_keys_on_the_full_scale_config(self, tmp_path):
        # Two scales sharing a name that differ only in a field the old
        # hand-written keys dropped must not share a cached SMARTS run.
        scales = [Scale.QUICK, replace(Scale.QUICK, smarts_warmup=2000)]
        ops = []
        for scale in scales:
            ctx = ExperimentContext(
                scale, cache_dir=tmp_path, benchmarks=["164.gzip"]
            )
            (smarts,) = fig12._techniques(ctx)["SMARTS"]
            cached = ctx.run_cached("164.gzip", smarts)
            direct = Smarts(SmartsConfig.from_scale(scale), ctx.machine).run(
                ctx.program("164.gzip")
            )
            assert cached == direct.to_doc()
            ops.append(cached["detailed_ops"])
        assert ops[0] != ops[1]

    def test_run_cached_keys_on_the_technique_machine(self, tmp_path):
        ctx = ExperimentContext(
            Scale.QUICK, cache_dir=tmp_path, benchmarks=["164.gzip"]
        )
        cfg = SmartsConfig.from_scale(ctx.scale)
        slow_memory = replace(DEFAULT_MACHINE, memory_latency=400)
        results = [
            ctx.run_cached("164.gzip", Smarts(cfg, machine))
            for machine in (DEFAULT_MACHINE, slow_memory)
        ]
        assert ctx.cache.misses == 2
        direct = Smarts(cfg, slow_memory).run(ctx.program("164.gzip"))
        assert results[1]["ipc_estimate"] == direct.ipc_estimate
        assert results[0]["ipc_estimate"] != results[1]["ipc_estimate"]

    def test_fig12_trace_runs_match_a_direct_trace_run(self, tmp_path):
        # SimPoint and Online SimPoint declare uses_trace, so run_cached
        # runs them on the cached reference trace, as a direct call does.
        ctx = ExperimentContext(
            Scale.QUICK, cache_dir=tmp_path, benchmarks=["164.gzip"]
        )
        interval = ctx.scale.simpoint_intervals[-1]
        grids = fig12._techniques(ctx)
        for technique in (
            SimPoint(SimPointConfig(interval, 3), ctx.machine),
            OnlineSimPoint(OnlineSimPointConfig(interval, 0.10), ctx.machine),
        ):
            assert technique.config in {t.config for t in grids[technique.name]}
            cached = ctx.run_cached("164.gzip", technique)
            direct = technique.run(
                ctx.program("164.gzip"), trace=ctx.trace("164.gzip")
            )
            assert cached == direct.to_doc()

    def test_run_cached_roundtrips_an_infinite_half_width(self, tmp_path):
        # With every stratum a singleton the scatter is unobserved and the
        # half width is inf, which the cache file holds as ``Infinity``.
        ci = stratified_mean_ci({0: 10, 1: 20}, {0: [1.0], 1: [2.0]})
        assert math.isinf(ci.half_width)
        result = SamplingResult("Stub", "164.gzip", ci.mean, 0, 30, 2, ci=ci)

        class Stub(SamplingTechnique):
            name = "stub"

            def run(self, program, **kwargs):
                return result

        ctx = ExperimentContext(
            Scale.QUICK, cache_dir=tmp_path, benchmarks=["164.gzip"]
        )
        ctx.run_cached("164.gzip", Stub())
        cached = ctx.run_cached("164.gzip", Stub())
        assert ctx.cache.hits == 1
        assert "Infinity" in next(tmp_path.glob("*.json")).read_text()
        assert cached == result.to_doc()

    def test_program_fresh_instances(self, ctx):
        assert ctx.program("164.gzip") is not ctx.program("164.gzip")


class TestAnalysisFigures:
    def test_fig01_timelines(self, ctx):
        result = fig01.run(ctx, benchmark="164.gzip")
        assert result["n_smarts"] > result["n_pgss"] > 0
        assert len(result["phase_line"]) == fig01.TIMELINE_COLS
        text = fig01.format_result(result)
        assert "SMARTS" in text and "PGSS" in text and "legend" in text

    def test_fig02_dispersion_shrinks_with_period(self, ctx):
        result = fig02.run(ctx)
        stds = [s["std"] for s in result["series"]]
        assert stds[0] > stds[-1]
        assert fig02.format_result(result).startswith("Figure 2")

    def test_fig03_polymodal(self, ctx):
        result = fig03.run(ctx)
        assert len(result["modes"]) >= 2
        assert "Figure 3" in fig03.format_result(result)

    def test_fig07_regions_partition(self, ctx):
        result = fig07.run(ctx)
        total = sum(result["regions"].values())
        assert total == result["n_pairs"]
        percent = np.array(result["percent"])
        assert percent.sum() == pytest.approx(100.0, abs=1.0)
        fig07.format_result(result)

    def test_fig08_curves_monotone_decreasing(self, ctx):
        result = fig08.run(ctx)
        for series in result["curves"].values():
            assert series[0] == 1.0  # threshold 0 catches everything
            assert series[-1] <= series[0]
        assert 0 <= result["knee_pi"] <= 0.5
        fig08.format_result(result)

    def test_fig08_higher_sigma_easier_to_catch(self, ctx):
        result = fig08.run(ctx)
        mid = len(result["thresholds_pi"]) // 3
        assert (
            result["curves"]["0.5"][mid] >= result["curves"]["0.1"][mid] - 1e-9
        )

    def test_fig09_false_positives_fall_with_threshold(self, ctx):
        result = fig09.run(ctx)
        for series in result["curves"].values():
            assert series[-1] <= series[0] + 1e-9
        fig09.format_result(result)

    def test_fig10_phase_count_falls(self, ctx):
        result = fig10.run(ctx)
        phases = [e["n_phases"] for e in result["points"]]
        assert phases[0] >= phases[-1]
        assert phases[-1] >= 1
        intervals = [e["mean_interval_ops"] for e in result["points"]]
        assert intervals[-1] >= intervals[0]
        fig10.format_result(result)


class TestSweepFigures:
    def test_fig11_single_run(self, ctx):
        res = fig11.run_single(ctx, "164.gzip", 4_000, 0.05)
        assert res["error_pct"] >= 0
        assert res["detailed_ops"] > 0

    def test_fig11_grid_shape(self, ctx):
        result = fig11.run(ctx)
        expected = len(ctx.scale.pgss_periods) * len(ctx.scale.thresholds)
        assert len(result["grid"]) == expected
        assert set(result["per_benchmark_best"]) == set(ctx.benchmarks)
        best = result["best_overall"]
        assert best["period"] in ctx.scale.pgss_periods
        fig11.format_result(result)

    def test_fig11_best_per_benchmark_beats_overall(self, ctx):
        result = fig11.run(ctx)
        for benchmark in ctx.benchmarks:
            per = result["per_benchmark_best"][benchmark]["error_pct"]
            overall_entry = next(
                g
                for g in result["grid"]
                if g["period"] == result["best_overall"]["period"]
                and g["threshold_pi"] == result["best_overall"]["threshold_pi"]
            )
            assert per <= overall_entry["errors"][benchmark] + 1e-9

    def test_fig13_rates_ordering(self, ctx):
        rates = fig13.measure_rates(ctx)
        assert rates["func_fast"] > rates["func_warm"] > 0
        assert rates["detail"] > 0
        # BBV overhead must be small on the detailed modes (paper: ~1%).
        assert rates["detail+bbv"] > 0.7 * rates["detail"]

    def test_fig13_times_are_each_run_accounting_over_the_rates(self, ctx):
        result = fig13.run(ctx)
        rates, times = result["rates"], result["times"]
        suite_ops = sum(ctx.trace(b).total_ops for b in ctx.benchmarks)
        assert result["totals"]["FullDetail"] == suite_ops / rates["detail"]
        best = fig11.run(ctx)["best_overall"]
        period, threshold = best["period"], best["threshold_pi"]
        techniques = fig12._techniques(ctx)
        runs = {
            name: techniques[name][0]
            for name in ("FullDetail", "SMARTS", "TurboSMARTS", "Stratified", "RankedSet")
        }
        runs["PGSS"] = fig11._pgss(ctx, period, threshold)
        modes = ("func_fast", "func_warm", "detail_warm", "detail")
        tracked = {"PGSS": modes, "Stratified": ("func_fast",)}
        for technique, run_one in runs.items():
            docs = [ctx.run_cached(b, run_one) for b in ctx.benchmarks]
            for mode in modes:
                ops = sum(doc["accounting_ops"][mode] for doc in docs)
                key = f"{mode}+bbv" if mode in tracked.get(technique, ()) else mode
                assert times[technique][mode] == ops / rates[key], (technique, mode)
        text = fig13.format_result(result)
        assert "func_fast(s)" in text and "detail_warm(s)" in text
