"""Ablation benches for the PGSS design choices DESIGN.md calls out.

Four ablations, each on a three-benchmark subset:

* **BBV width** — the paper's reduced 32-register file vs a 1024-bucket
  wide vector: the reduced hash must not cost much accuracy (that is what
  makes the Fig. 4 hardware cheap).
* **Distance metric** — the paper's cosine/angle vs SimPoint's Manhattan
  distance for online phase matching.
* **Sample spreading** — the Fig. 5 "1M ops since last sample in phase?"
  rule vs sampling immediately whenever a phase is out of bounds.
* **Confidence stopping** — per-phase CI stopping vs a fixed sample count
  per phase (the prior-work strategy the paper criticises).
"""

from typing import Dict

from repro.sampling.pgss import Pgss, PgssConfig

from conftest import record

SUBSET = ("164.gzip", "183.equake", "300.twolf")


def _run_variant(ctx, **overrides) -> Dict[str, float]:
    """Run a PGSS variant over the subset; returns mean error / detail."""
    errors = []
    details = []
    config = PgssConfig.from_scale(ctx.scale, **overrides)
    for name in SUBSET:
        res = ctx.run_cached(name, Pgss(config, machine=ctx.machine))
        errors.append(
            100.0
            * abs(res["ipc_estimate"] - ctx.true_ipc(name))
            / ctx.true_ipc(name)
        )
        details.append(res["detailed_ops"])
    return {
        "a_mean_error": sum(errors) / len(errors),
        "mean_detailed_ops": sum(details) / len(details),
    }


def _report(results_dir, name: str, variants: Dict[str, Dict[str, float]]) -> str:
    lines = [f"Ablation — {name}", ""]
    for label, stats in variants.items():
        lines.append(
            f"  {label:30s} A-mean err {stats['a_mean_error']:6.2f}%   "
            f"detail {stats['mean_detailed_ops']:>12,.0f} ops"
        )
    text = "\n".join(lines)
    record(results_dir, f"ablation_{name}", text)
    return text


def test_ablation_bbv_width(benchmark, ctx, results_dir):
    def run():
        return {
            "reduced (32 buckets, Fig. 4)": _run_variant(ctx),
            "wide (1024 buckets)": _run_variant(ctx, wide_bbv_buckets=1024),
            "narrow (4 buckets)": _run_variant(ctx, wide_bbv_buckets=4),
        }

    variants = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(results_dir, "bbv_width", variants)
    reduced = variants["reduced (32 buckets, Fig. 4)"]
    wide = variants["wide (1024 buckets)"]
    # The cheap reduced hash must stay in the same accuracy class as the
    # wide vector (paper's premise for the 32-register hardware); with
    # the handful of static blocks these workloads have, the two usually
    # classify identically.
    assert reduced["a_mean_error"] < wide["a_mean_error"] + 15.0
    benchmark.extra_info.update(
        {k: round(v["a_mean_error"], 2) for k, v in variants.items()}
    )


def test_ablation_distance_metric(benchmark, ctx, results_dir):
    def run():
        return {
            "angle (cosine, paper)": _run_variant(ctx),
            # A Manhattan threshold of 0.5 on unit-L2 vectors is roughly
            # comparable selectivity to .05 pi.
            "manhattan (SimPoint-style)": _run_variant(
                ctx, metric="manhattan", threshold_pi=0.5 / 3.1416
            ),
        }

    variants = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(results_dir, "distance_metric", variants)
    angle = variants["angle (cosine, paper)"]
    assert angle["a_mean_error"] < 40.0
    benchmark.extra_info.update(
        {k: round(v["a_mean_error"], 2) for k, v in variants.items()}
    )


def test_ablation_spread_rule(benchmark, ctx, results_dir):
    def run():
        return {
            "spread rule on (Fig. 5)": _run_variant(ctx),
            "spread rule off": _run_variant(ctx, use_spread_rule=False),
        }

    variants = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(results_dir, "spread_rule", variants)
    on = variants["spread rule on (Fig. 5)"]
    off = variants["spread rule off"]
    # Without spreading, sampling concentrates at early phase occurrences:
    # at least as much detail is spent.
    assert off["mean_detailed_ops"] >= on["mean_detailed_ops"] * 0.9
    benchmark.extra_info["on_detail"] = round(on["mean_detailed_ops"])
    benchmark.extra_info["off_detail"] = round(off["mean_detailed_ops"])


def test_ablation_confidence_stopping(benchmark, ctx, results_dir):
    def run():
        return {
            "CI stopping (paper)": _run_variant(ctx),
            "fixed 1 sample/phase (prior work)": _run_variant(
                ctx, fixed_samples_per_phase=1
            ),
            "fixed 3 samples/phase": _run_variant(
                ctx, fixed_samples_per_phase=3
            ),
        }

    variants = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(results_dir, "confidence_stopping", variants)
    ci = variants["CI stopping (paper)"]
    fixed1 = variants["fixed 1 sample/phase (prior work)"]
    # One sample per phase (the prior-work strategy) is cheaper but less
    # accurate than adaptive CI-driven sampling.  The accuracy margin only
    # holds with enough sampling periods, i.e. at the SCALED point.
    assert fixed1["mean_detailed_ops"] <= ci["mean_detailed_ops"]
    margin = 2.0 if ctx.scale.name != "quick" else 15.0
    assert ci["a_mean_error"] <= fixed1["a_mean_error"] + margin
    benchmark.extra_info.update(
        {k: round(v["a_mean_error"], 2) for k, v in variants.items()}
    )
