"""Local-worker bench: one vs several local workers on the same cell set.

Runs the same figure cell set twice from cold caches through
``LocalService`` — once with ``jobs=1`` (every cell in this process) and
once with ``jobs=N`` local workers (N = the CPU count clamped to 2..8,
so 2 on a 2-CPU host) — then assembles each figure from both caches and
compares the results byte for byte.  Identity must hold on any machine.
A speedup only means something where the workers get a core each, so it
is recorded as null below 2 CPUs, and the >= 2x bar only applies where
there are enough cores to pay for the fan-out (>= 4).  CPU count, wall
times and the speedup go to ``results/BENCH_parallel_runner.json``.
"""

import importlib
import json
import os
import platform
import time

from repro.experiments import ExperimentContext
from repro.experiments.formatting import table
from repro.fleet import LocalService

from conftest import record

#: Figure modules whose cells form the bench workload (deterministic
#: cells only — fig13's rate cell measures host time and cannot be
#: byte-compared across independent caches).
BENCH_FIGURES = (
    "fig07_change_distribution",
    "fig11_pgss_sweep",
)

#: Figure ids of :data:`BENCH_FIGURES` for ``LocalService.submit``.
BENCH_FIGURE_IDS = "7,11"


def _fresh_ctx(base_ctx, cache_dir):
    return ExperimentContext(
        base_ctx.scale,
        machine=base_ctx.machine,
        cache_dir=cache_dir,
        benchmarks=base_ctx.benchmarks,
    )


def _timed_run(ctx, jobs):
    service = LocalService(ctx, jobs=jobs)
    start = time.perf_counter()  # simlint: disable=DET005
    handle = service.submit(figures=BENCH_FIGURE_IDS)
    state = service.wait(handle)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    assert state.state == "done", state.failures
    return elapsed, state.total


def _figure_bytes(ctx):
    """Canonical bytes of every bench figure, assembled from ctx's cache."""
    chunks = []
    for name in BENCH_FIGURES:
        module = importlib.import_module(f"repro.experiments.{name}")
        chunks.append(json.dumps(module.run(ctx), sort_keys=True))
    return "\n".join(chunks)


def measure(base_ctx, tmp_dir):
    cpus = os.cpu_count() or 1
    jobs = max(2, min(cpus, 8))
    serial_ctx = _fresh_ctx(base_ctx, tmp_dir / "serial")
    parallel_ctx = _fresh_ctx(base_ctx, tmp_dir / "parallel")

    serial_s, n_cells = _timed_run(serial_ctx, jobs=1)
    parallel_s, _ = _timed_run(parallel_ctx, jobs=jobs)

    return {
        "cpus": cpus,
        "jobs": jobs,
        "n_cells": n_cells,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if cpus >= 2 else None,
        "byte_identical": _figure_bytes(serial_ctx) == _figure_bytes(parallel_ctx),
    }


def format_result(result):
    speedup = result["speedup"]
    rows = [
        ["LocalService(jobs=1)", f"{result['serial_s']:.2f} s"],
        [f"LocalService(jobs={result['jobs']})", f"{result['parallel_s']:.2f} s"],
        ["speedup", "n/a (< 2 cpus)" if speedup is None else f"{speedup:.2f}x"],
        ["byte-identical", str(result["byte_identical"])],
    ]
    header = (
        "Local workers — LocalService with one vs several workers "
        f"({result['n_cells']} cells over {', '.join(BENCH_FIGURES)}; "
        f"{result['cpus']} cpus)\n\n"
    )
    return header + table(["run", "value"], rows)


def test_parallel_runner(benchmark, ctx, results_dir, tmp_path):
    result = benchmark.pedantic(
        measure, args=(ctx, tmp_path), rounds=1, iterations=1
    )
    record(results_dir, "parallel_runner", format_result(result))

    speedup = result["speedup"]
    payload = {
        "figures": list(BENCH_FIGURES),
        "scale": ctx.scale.name,
        "python": platform.python_version(),
        "cpus": result["cpus"],
        "jobs": result["jobs"],
        "n_cells": result["n_cells"],
        "serial_s": round(result["serial_s"], 3),
        "parallel_s": round(result["parallel_s"], 3),
        "speedup": None if speedup is None else round(speedup, 2),
        "byte_identical": result["byte_identical"],
    }
    (results_dir / "BENCH_parallel_runner.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Identity holds unconditionally; the speedup bar needs real cores.
    assert result["byte_identical"]
    if result["cpus"] >= 4:
        assert speedup >= 2.0

    benchmark.extra_info["speedup"] = payload["speedup"]
    benchmark.extra_info["byte_identical"] = result["byte_identical"]
