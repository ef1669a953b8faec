"""Engine-rate bench: scalar vs. batched throughput for every mode.

Measures the raw simulation rate (ops/second) of every execution mode
through the engine, which runs every mode in run-length batches, and
through the scalar event loop that the test suite keeps as its reference
(``tests/scalar_reference.py``: one block event at a time, per-access
cache and predictor calls).  It asserts the batched engine delivers its
headline speedups: FUNC_FAST with BBV tracking at least 5x the scalar
event loop, the batched detailed modes (the architectural pass plus a
memoized timing replay of its recorded misses, mispredictions and fetch
stalls) at least 10x the scalar DETAIL loop, and the batched warmer
(bulk branch runs, silent fetches and one program-order data stream per
slice) at least 3x the scalar FUNC_WARM loop, with and without BBV.

``164.gzip`` calibrates every mode.  Two more programs get FUNC_WARM
and DETAIL rows because most of their data accesses miss the L1D: for
each such access the replay kernel (``CacheHierarchy.warm_data_run``)
evicts an L1D line and looks the line up in the L2, and DETAIL puts a
special iteration into nearly every stretch of the timing replay.  They
are ``181.mcf`` (hashed pointer chasing) and ``adv.footprint_step``
(16 KB and 128 KB strides that miss on every access).  Their FUNC_WARM rows have a 2x
floor; their DETAIL rows are recorded only.

Shared machines drift in effective speed by tens of percent over
minutes, which is far more than the margins being asserted.  Each
gated rate is therefore measured as an interleaved best-of-N: the
batched and scalar arms alternate rep by rep (so both sample the same
machine phases) and each arm keeps its best rate.  Ratios of best
rates are stable where single-shot ratios swing wildly.  Every timed
run covers the full op budget: the programs are built long enough for
the warm-up plus ``RATE_OPS`` at any scale.

Beyond the human-readable table in ``results/engine_rate.txt``, the raw
numbers land in ``results/BENCH_engine_rate.json`` for machine
consumption (CI trend lines, the README performance section).
"""

import dataclasses
import json
import platform
import sys
import time
from functools import partial
from pathlib import Path

from repro import BbvTracker, Mode, SimulationEngine, get_workload
from repro.experiments.formatting import table

from conftest import record

# The scalar arm is the test suite's reference loop.  Appended, not
# prepended, so ``conftest`` above stays this directory's.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from scalar_reference import run_scalar  # noqa: E402

#: Calibration workload and op budget (per timed run).
RATE_BENCHMARK = "164.gzip"
RATE_OPS = 600_000
#: Untimed ops run first in every engine (interpreter warm-up).
WARMUP_OPS = RATE_OPS // 10

#: Programs whose FUNC_WARM and DETAIL rates are also recorded.
MISS_PROGRAMS = ("181.mcf", "adv.footprint_step")
#: The modes measured on them.
MISS_MODES = (Mode.FUNC_WARM, Mode.DETAIL)

#: Reps per arm (interleaved, best-of-N).  The batched arm's timed region
#: is up to ~10x shorter than the scalar arm's, so it needs more samples
#: to pin down its peak rate.
RATE_REPS = 5
RATE_REPS_BATCHED = 10

#: Modes whose scalar arm is also timed.
BATCHED_MODES = (Mode.DETAIL, Mode.DETAIL_WARM, Mode.FUNC_FAST, Mode.FUNC_WARM)


def _program(ctx, name):
    """Workload *name* at the bench scale, long enough for one timed run."""
    scale = ctx.scale
    if scale.benchmark_ops < WARMUP_OPS + RATE_OPS:
        scale = dataclasses.replace(scale, benchmark_ops=WARMUP_OPS + RATE_OPS)
    return get_workload(name, scale)


def _rate_once(ctx, name, mode, with_bbv, batched):
    tracker = BbvTracker() if with_bbv else None
    engine = SimulationEngine(
        _program(ctx, name), machine=ctx.machine, signal_tracker=tracker
    )
    advance = engine.run if batched else partial(run_scalar, engine)
    advance(mode, WARMUP_OPS)
    start = time.perf_counter()  # simlint: disable=DET005
    run = advance(mode, RATE_OPS)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    assert run.ops >= RATE_OPS, f"{name} ended inside the timed run"
    return run.ops / elapsed if elapsed > 0 else 0.0


def _best_pair(ctx, name, mode, with_bbv):
    """Interleaved best-of-N rates of the (batched, scalar) arms."""
    best_b = best_s = 0.0
    for rep in range(RATE_REPS_BATCHED):
        best_b = max(best_b, _rate_once(ctx, name, mode, with_bbv, True))
        if rep < RATE_REPS:
            best_s = max(best_s, _rate_once(ctx, name, mode, with_bbv, False))
    return best_b, best_s


def measure(ctx):
    rates = {}
    for mode in Mode:
        for with_bbv in (False, True):
            suffix = "+bbv" if with_bbv else ""
            if mode in BATCHED_MODES:
                (
                    rates[f"{mode.value}{suffix}"],
                    rates[f"{mode.value}_scalar{suffix}"],
                ) = _best_pair(ctx, RATE_BENCHMARK, mode, with_bbv)
            else:
                rates[f"{mode.value}{suffix}"] = _rate_once(
                    ctx, RATE_BENCHMARK, mode, with_bbv, True
                )
    for name in MISS_PROGRAMS:
        for mode in MISS_MODES:
            (
                rates[f"{mode.value}@{name}"],
                rates[f"{mode.value}_scalar@{name}"],
            ) = _best_pair(ctx, name, mode, False)
    speedups = {
        f"{mode.value}{suffix}": (
            rates[f"{mode.value}{suffix}"]
            / rates[f"{mode.value}_scalar{suffix}"]
        )
        for mode in BATCHED_MODES
        for suffix in ("", "+bbv")
        if rates[f"{mode.value}_scalar{suffix}"]
    }
    for name in MISS_PROGRAMS:
        for mode in MISS_MODES:
            speedups[f"{mode.value}@{name}"] = (
                rates[f"{mode.value}@{name}"] / rates[f"{mode.value}_scalar@{name}"]
            )
    return {"rates": rates, "speedups": speedups}


def _row(result, key, scalar_key):
    scalar = result["rates"].get(scalar_key)
    return [
        key,
        f"{result['rates'][key] / 1e3:,.0f} kops/s",
        f"{scalar / 1e3:,.0f} kops/s" if scalar else "-",
        f"{result['speedups'][key]:.1f}x" if key in result["speedups"] else "-",
    ]


def format_result(result):
    rows = [
        _row(result, f"{mode.value}{suffix}", f"{mode.value}_scalar{suffix}")
        for mode in Mode
        for suffix in ("", "+bbv")
    ]
    rows += [
        _row(result, f"{mode.value}@{name}", f"{mode.value}_scalar@{name}")
        for mode in MISS_MODES
        for name in MISS_PROGRAMS
    ]
    speedups = result["speedups"]
    header = (
        "Engine throughput — batched engine vs. scalar event loop "
        f"({RATE_BENCHMARK} unless tagged @program, {RATE_OPS:,} ops per "
        f"timed run, best of {RATE_REPS_BATCHED} batched / {RATE_REPS} "
        "scalar interleaved reps)\n"
        f"batched FUNC_FAST+BBV speedup: {speedups.get('func_fast+bbv', 0.0):.1f}x\n"
        + "".join(
            f"batched {mode.name} speedup: {speedups.get(mode.value, 0.0):.1f}x"
            + "".join(
                f", {speedups[f'{mode.value}@{name}']:.1f}x on {name}"
                for name in MISS_PROGRAMS
            )
            + "\n"
            for mode in MISS_MODES[::-1]
        )
        + "\n"
    )
    return header + table(["mode", "batched", "scalar", "speedup"], rows)


def test_engine_rate(benchmark, ctx, results_dir):
    result = benchmark.pedantic(measure, args=(ctx,), rounds=1, iterations=1)
    record(results_dir, "engine_rate", format_result(result))

    payload = {
        "benchmark": RATE_BENCHMARK,
        "func_warm_programs": list(MISS_PROGRAMS),
        "detail_programs": list(MISS_PROGRAMS),
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
    # Hashed pointer chasing: nearly every access goes through the
    # warmer's replay kernel.
    assert result["speedups"]["func_warm@181.mcf"] >= 2.0
    # Strides that miss on every access in two of its three phases.
    assert result["speedups"]["func_warm@adv.footprint_step"] >= 2.0

    benchmark.extra_info["speedups"] = {
        k: round(v, 1) for k, v in result["speedups"].items()
    }
