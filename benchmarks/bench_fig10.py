"""Figure 10 bench: threshold effects on 300.twolf's phase statistics.

Paper claims regenerated: "The number of detected phases quickly drops as
the threshold increases, but the variation in each phase raises quickly";
average interval length grows with the threshold.
"""

from repro.experiments import fig10_twolf_threshold as fig10

from conftest import record


def test_fig10_twolf_threshold(benchmark, ctx, results_dir):
    result = benchmark.pedantic(fig10.run, args=(ctx,), rounds=1, iterations=1)
    record(results_dir, "fig10", fig10.format_result(result))

    sweep = result["points"]
    phases = [e["n_phases"] for e in sweep]
    intervals = [e["mean_interval_ops"] for e in sweep]
    variations = [e["ipc_variation"] for e in sweep]

    assert phases[0] > phases[-1]
    assert phases[-1] >= 1
    assert intervals[-1] > intervals[0]
    # Variation at loose thresholds exceeds variation at the tightest.
    assert max(variations[-4:]) >= variations[0]
    benchmark.extra_info["phases_tightest"] = phases[0]
    benchmark.extra_info["phases_loosest"] = phases[-1]
