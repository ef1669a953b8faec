"""Ablation bench: detailed warm-up length before each SMARTS sample.

Paper Section 2.2: "each detailed simulation period is immediately
preceded by an interval of three or four thousand instructions of detailed
simulation in which statistics are not measured.  This pre-sample
simulation is used to warm up short-lifetime structures of the processor."

Swept here: warm-up of 0, 1x and 2x the scale's canonical length, on three
benchmarks, at a fixed total detail budget per sample (so accuracy changes
come from warm-up placement, not extra detail).
"""

from dataclasses import replace

from repro.sampling.smarts import Smarts, SmartsConfig

from conftest import record

SUBSET = ("164.gzip", "183.equake", "300.twolf")


def _run_point(ctx, warmup_ops: int):
    errors = []
    cfg = replace(SmartsConfig.from_scale(ctx.scale), warmup_ops=warmup_ops)
    for name in SUBSET:
        res = ctx.run_cached(name, Smarts(cfg, ctx.machine))
        true = ctx.true_ipc(name)
        errors.append(100.0 * abs(res["ipc_estimate"] - true) / true)
    return sum(errors) / len(errors)


def test_ablation_detailed_warmup(benchmark, ctx, results_dir):
    base = ctx.scale.smarts_warmup

    def run():
        return {
            "none (0 ops)": _run_point(ctx, 0),
            f"canonical ({base} ops)": _run_point(ctx, base),
            f"double ({2 * base} ops)": _run_point(ctx, 2 * base),
        }

    variants = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — detailed warm-up before each sample", ""]
    for label, err in variants.items():
        lines.append(f"  {label:24s} A-mean err {err:6.2f}%")
    record(results_dir, "ablation_warmup", "\n".join(lines))

    # Removing the pre-sample warm-up must not improve accuracy; with
    # warming-FF keeping caches warm, the gap is modest but real because
    # short-lifetime pipeline state is re-established by the warm-up.
    assert variants["none (0 ops)"] >= variants[f"canonical ({base} ops)"] - 2.0
    benchmark.extra_info.update({k: round(v, 2) for k, v in variants.items()})
