"""Engine-rate bench: scalar vs. batched throughput for every mode.

Measures the raw simulation rate (ops/second) of every execution mode
through both dispatch paths and asserts the batched layer delivers its
headline speedups: FUNC_FAST with BBV tracking at least 5x the scalar
event loop, the batched detailed pipeline (run-length scoreboard
batching plus steady-state memoization) at least 10x the scalar DETAIL
loop, and the batched warmer (bulk branch runs, silent fetches and
net-silent data spans) at least 3x the scalar FUNC_WARM loop, with and
without BBV.

Shared machines drift in effective speed by tens of percent over
minutes, which is far more than the margins being asserted.  Each
gated mode is therefore measured as an interleaved best-of-N: the
batched and scalar arms alternate rep by rep (so both sample the same
machine phases) and each arm keeps its best rate.  Ratios of best
rates are stable where single-shot ratios swing wildly.

Beyond the human-readable table in ``results/engine_rate.txt``, the raw
numbers land in ``results/BENCH_engine_rate.json`` for machine
consumption (CI trend lines, the README performance section).
"""

import json
import platform
import time

from repro import BbvTracker, Mode, SimulationEngine
from repro.experiments.formatting import table

from conftest import record

#: Calibration workload and op budget (per timed run).
RATE_BENCHMARK = "164.gzip"
RATE_OPS = 600_000

#: Reps per arm for the gated modes (interleaved, best-of-N).  The
#: batched arm's timed region is ~10x shorter than the scalar arm's, so
#: it needs more samples to pin down its peak rate.
RATE_REPS = 3
RATE_REPS_BATCHED = 6

#: Modes with a distinct batched dispatch path (scalar arm also timed).
BATCHED_MODES = (Mode.DETAIL, Mode.DETAIL_WARM, Mode.FUNC_FAST, Mode.FUNC_WARM)


def _rate_once(ctx, mode, with_bbv, batched):
    program = ctx.program(RATE_BENCHMARK)
    tracker = BbvTracker() if with_bbv else None
    engine = SimulationEngine(
        program, machine=ctx.machine, signal_tracker=tracker,
        batched=None if batched else False,
    )
    # Warm the interpreter before timing.
    engine.run(mode, RATE_OPS // 10)
    start = time.perf_counter()  # simlint: disable=DET005
    run = engine.run(mode, RATE_OPS)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    return run.ops / elapsed if elapsed > 0 else 0.0


def measure(ctx):
    rates = {}
    for mode in Mode:
        for with_bbv in (False, True):
            suffix = "+bbv" if with_bbv else ""
            if mode in BATCHED_MODES:
                # Interleave the arms so a machine-speed phase hits both.
                best_b = best_s = 0.0
                for rep in range(RATE_REPS_BATCHED):
                    b = _rate_once(ctx, mode, with_bbv, True)
                    if b > best_b:
                        best_b = b
                    if rep < RATE_REPS:
                        s = _rate_once(ctx, mode, with_bbv, False)
                        if s > best_s:
                            best_s = s
                rates[f"{mode.value}{suffix}"] = best_b
                rates[f"{mode.value}_scalar{suffix}"] = best_s
            else:
                rates[f"{mode.value}{suffix}"] = _rate_once(
                    ctx, mode, with_bbv, True
                )
    speedups = {
        f"{mode.value}{suffix}": (
            rates[f"{mode.value}{suffix}"]
            / rates[f"{mode.value}_scalar{suffix}"]
        )
        for mode in BATCHED_MODES
        for suffix in ("", "+bbv")
        if rates[f"{mode.value}_scalar{suffix}"]
    }
    return {"rates": rates, "speedups": speedups}


def format_result(result):
    rows = []
    for mode in Mode:
        scalar_key = f"{mode.value}_scalar"
        for suffix in ("", "+bbv"):
            key = f"{mode.value}{suffix}"
            scalar = result["rates"].get(scalar_key + suffix)
            rows.append(
                [
                    key,
                    f"{result['rates'][key] / 1e3:,.0f} kops/s",
                    f"{scalar / 1e3:,.0f} kops/s" if scalar else "-",
                    f"{result['speedups'][key]:.1f}x"
                    if key in result["speedups"]
                    else "-",
                ]
            )
    header = (
        "Engine throughput — batched vs. scalar dispatch "
        f"({RATE_BENCHMARK}, {RATE_OPS:,} ops per timed run, best of "
        f"{RATE_REPS_BATCHED} batched / {RATE_REPS} scalar interleaved reps)\n"
        f"batched FUNC_FAST+BBV speedup: "
        f"{result['speedups'].get('func_fast+bbv', 0.0):.1f}x\n"
        f"batched DETAIL speedup: "
        f"{result['speedups'].get('detail', 0.0):.1f}x\n"
        f"batched FUNC_WARM speedup: "
        f"{result['speedups'].get('func_warm', 0.0):.1f}x\n\n"
    )
    return header + table(["mode", "batched", "scalar", "speedup"], rows)


def test_engine_rate(benchmark, ctx, results_dir):
    result = benchmark.pedantic(measure, args=(ctx,), rounds=1, iterations=1)
    record(results_dir, "engine_rate", format_result(result))

    payload = {
        "benchmark": RATE_BENCHMARK,
        "ops_per_run": RATE_OPS,
        "reps_per_arm": {"batched": RATE_REPS_BATCHED, "scalar": RATE_REPS},
        "scale": ctx.scale.name,
        "python": platform.python_version(),
        "rates_ops_per_sec": {k: round(v, 1) for k, v in result["rates"].items()},
        "speedups": {k: round(v, 2) for k, v in result["speedups"].items()},
    }
    (results_dir / "BENCH_engine_rate.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    rates = result["rates"]
    # Every mode must make forward progress.
    assert all(r > 0 for r in rates.values())
    # The acceptance bars: batched FUNC_FAST with BBV at least 5x scalar,
    # batched DETAIL at least 10x the scalar detailed loop, batched
    # FUNC_WARM at least 3x the scalar warming loop.
    assert result["speedups"]["func_fast+bbv"] >= 5.0
    assert result["speedups"]["func_fast"] >= 5.0
    assert result["speedups"]["detail"] >= 10.0
    assert result["speedups"]["func_warm"] >= 3.0
    assert result["speedups"]["func_warm+bbv"] >= 3.0
    # DETAIL_WARM batches the same way as DETAIL; guard against
    # regression without pinning it to the headline floor.
    assert result["speedups"]["detail_warm"] >= 5.0

    benchmark.extra_info["speedups"] = {
        k: round(v, 1) for k, v in result["speedups"].items()
    }
