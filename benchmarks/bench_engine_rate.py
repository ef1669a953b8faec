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

The ``trace`` row times ``collect_reference_trace`` on ``164.gzip``
(one engine pass per chunk of windows, ``SimulationEngine.run_windows``)
against the per-window loop it replaced (``per_window_trace``: one
DETAIL ``run_segment`` and one BBV drain per window), with a 1.4x floor.

The ``replay`` row times RankedSet's measurement pass on ``164.gzip``
(``measure_intervals``: FUNC_FAST skips, and detailed timing replayed
from the outcome record its ranking pass left) against the live pass it
replaced (``live_measure_intervals``: FUNC_WARM skips on a plain engine),
with a 1.8x floor.  Its rates are program ops per second of the pass;
the ranking pass is not timed.

The ``shared`` row times a whole PGSS run on ``164.gzip`` at the bench
scale replaying a complete outcome record, as a fleet worker's technique
cells replay the record it keeps (``RecordSlot``), against a live run
that warms its own caches, with a 1.4x floor.  Its rates are program
ops per second of the run; the record is built once, untimed.

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
from repro.cpu import OutcomeRecord
from repro.experiments.formatting import table
from repro.experiments.runner import RecordSlot
from repro.sampling import Pgss, PgssConfig, RankedSetConfig, RankedSetSampling
from repro.sampling.full import collect_reference_trace
from repro.sampling.session import measure_intervals

from conftest import record

# The scalar arm is the test suite's reference loop.  Appended, not
# prepended, so ``conftest`` above stays this directory's.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from scalar_reference import (  # noqa: E402
    live_measure_intervals,
    per_window_trace,
    run_scalar,
)

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

#: Reps per arm of the reference-trace row (interleaved, best-of-N).
TRACE_REPS = 5

#: Reps per arm of the replayed-measurement row (interleaved, best-of-N).
#: Each timed pass takes milliseconds, so more reps pin down its peak.
REPLAY_REPS = 9

#: Reps per arm of the shared-record row (interleaved, best-of-N).
SHARED_REPS = 9

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


def _trace_rate_once(ctx, program, windowed):
    window = ctx.scale.trace_window
    start = time.perf_counter()  # simlint: disable=DET005
    if windowed:
        trace = collect_reference_trace(program, window, machine=ctx.machine)
    else:
        engine = SimulationEngine(
            program, machine=ctx.machine, signal_tracker=BbvTracker()
        )
        trace = per_window_trace(engine, Mode.DETAIL, window)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    return trace.total_ops / elapsed if elapsed > 0 else 0.0


def _best_trace_pair(ctx):
    """Interleaved best-of-N rates of the (windowed, per-window) traces."""
    program = _program(ctx, RATE_BENCHMARK)
    best_w = best_p = 0.0
    for _ in range(TRACE_REPS):
        best_w = max(best_w, _trace_rate_once(ctx, program, True))
        best_p = max(best_p, _trace_rate_once(ctx, program, False))
    return best_w, best_p


def _replay_rate_once(ctx, program, replayed):
    """One RankedSet measurement pass, replayed or live, after an untimed
    ranking pass on a fresh record."""
    cfg = RankedSetConfig.from_scale(ctx.scale)
    technique = RankedSetSampling(cfg, machine=ctx.machine)
    record = OutcomeRecord(program, ctx.machine)
    targets = technique._select(technique._proxy_pass(record, None), cfg.set_size)
    args = (targets, cfg.interval_ops, cfg.warmup_ops, cfg.detail_ops)
    start = time.perf_counter()  # simlint: disable=DET005
    if replayed:
        measured, _ = measure_intervals(record, *args)
    else:
        measured = live_measure_intervals(program, ctx.machine, *args)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    assert measured, "the measurement pass took no sample"
    return record.ops / elapsed if elapsed > 0 else 0.0


def _best_replay_pair(ctx):
    """Interleaved best-of-N rates of the (replayed, live) passes."""
    program = _program(ctx, RATE_BENCHMARK)
    best_r = best_l = 0.0
    for _ in range(REPLAY_REPS):
        best_r = max(best_r, _replay_rate_once(ctx, program, True))
        best_l = max(best_l, _replay_rate_once(ctx, program, False))
    return best_r, best_l


def _shared_rate_once(ctx, program, record):
    """One PGSS run on *program*, replaying *record* (live when None)."""
    technique = Pgss(PgssConfig.from_scale(ctx.scale), machine=ctx.machine)
    start = time.perf_counter()  # simlint: disable=DET005
    result = technique.run(program, outcomes=record)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    assert result.n_samples, "the PGSS run took no sample"
    return result.total_ops / elapsed if elapsed > 0 else 0.0


def _best_shared_pair(ctx):
    """Interleaved best-of-N rates of the (replaying, live) PGSS runs."""
    program = get_workload(RATE_BENCHMARK, ctx.scale)
    record = RecordSlot().get(program, ctx.machine)
    best_r = best_l = 0.0
    for _ in range(SHARED_REPS):
        best_r = max(best_r, _shared_rate_once(ctx, program, record))
        best_l = max(best_l, _shared_rate_once(ctx, program, None))
    return best_r, best_l


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
    rates["trace"], rates["trace_per_window"] = _best_trace_pair(ctx)
    rates["replay"], rates["replay_live"] = _best_replay_pair(ctx)
    rates["shared"], rates["shared_live"] = _best_shared_pair(ctx)
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
    speedups["trace"] = rates["trace"] / rates["trace_per_window"]
    speedups["replay"] = rates["replay"] / rates["replay_live"]
    speedups["shared"] = rates["shared"] / rates["shared_live"]
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
    rows.append(_row(result, "trace", "trace_per_window"))
    rows.append(_row(result, "replay", "replay_live"))
    rows.append(_row(result, "shared", "shared_live"))
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
        + f"windowed reference trace: {speedups['trace']:.1f}x the per-window "
        "loop (trace row: its scalar column is that loop)\n"
        + f"replayed RankedSet measurement pass: {speedups['replay']:.1f}x the "
        "live pass (replay row: its scalar column is that pass)\n"
        + f"PGSS replaying a shared outcome record: {speedups['shared']:.1f}x the "
        "live run (shared row: its scalar column is that run)\n"
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
        "reps_per_arm": {
            "batched": RATE_REPS_BATCHED,
            "scalar": RATE_REPS,
            "trace": TRACE_REPS,
            "replay": REPLAY_REPS,
            "shared": SHARED_REPS,
        },
        "trace_window": ctx.scale.trace_window,
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
    # One engine pass per chunk of trace windows, against one per window.
    assert result["speedups"]["trace"] >= 1.4
    # RankedSet's measurement pass replayed from its ranking pass's
    # record, against warming the caches again.
    assert result["speedups"]["replay"] >= 1.8
    # A PGSS run replaying a worker's shared record, against a run that
    # warms its own caches.
    assert result["speedups"]["shared"] >= 1.4

    benchmark.extra_info["speedups"] = {
        k: round(v, 1) for k, v in result["speedups"].items()
    }
