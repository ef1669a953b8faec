"""Golden-fixture machinery for the sampling-session equivalence suite.

The sampling-session refactor (DESIGN.md §13) re-expressed every
technique on top of :class:`repro.sampling.session.SamplingSession`.
Its acceptance gate is byte-identical :class:`SamplingResult`s: the
fixtures under ``tests/golden/`` were generated by the pre-refactor
implementations and every post-refactor run must reproduce them exactly
(wall-clock seconds excluded — they are the only nondeterministic field).

Regenerate (only when *intentionally* changing technique semantics)::

    PYTHONPATH=src python tests/_golden.py --regen
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Any, Dict

from repro.config import Scale
from repro.cpu.engine import Mode
from repro.program import ADVERSARIAL_NAMES, get_workload
from repro.sampling import (
    FullDetail,
    OnlineSimPoint,
    OnlineSimPointConfig,
    Pgss,
    PgssConfig,
    RankedSetConfig,
    RankedSetSampling,
    SimPoint,
    SimPointConfig,
    Smarts,
    SmartsConfig,
    TurboSmarts,
    TurboSmartsConfig,
    TwoPhaseStratified,
    TwoPhaseStratifiedConfig,
    collect_reference_trace,
)
from repro.signals import PHASE_SIGNALS

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The three fixture workloads (stable, phase-diverse, cheap at QUICK).
WORKLOADS = ("164.gzip", "183.equake", "300.twolf")

SCALE = Scale.QUICK


def technique_matrix() -> Dict[str, Any]:
    """Fresh technique instances, keyed by fixture label.

    Techniques that declare ``uses_trace`` run against the workload's
    reference trace (the deterministic path the figure harness uses).
    """
    return {
        "smarts": Smarts(SmartsConfig.from_scale(SCALE)),
        "turbosmarts": TurboSmarts(TurboSmartsConfig.from_scale(SCALE)),
        "simpoint": SimPoint(SimPointConfig(SCALE.simpoint_intervals[-1], 3)),
        "online_simpoint": OnlineSimPoint(
            OnlineSimPointConfig(SCALE.simpoint_intervals[1], 0.10)
        ),
        "pgss": Pgss(PgssConfig.from_scale(SCALE)),
        "full": FullDetail(),
        "stratified": TwoPhaseStratified(TwoPhaseStratifiedConfig.from_scale(SCALE)),
        "ranked": RankedSetSampling(RankedSetConfig.from_scale(SCALE)),
    }


def _canon(value: Any) -> Any:
    """Canonical JSON form: floats as exact hex, numpy scalars unwrapped."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def canonical_result(result: Any) -> Dict[str, Any]:
    """Byte-stable representation of a SamplingResult.

    Every deterministic field is included; ``accounting.seconds`` (wall
    clock) is the single exclusion.
    """
    ci = result.ci
    return {
        "technique": result.technique,
        "program": result.program,
        "ipc_estimate": _canon(result.ipc_estimate),
        "detailed_ops": int(result.detailed_ops),
        "total_ops": int(result.total_ops),
        "n_samples": int(result.n_samples),
        "accounting_ops": {m.value: int(result.accounting.ops[m]) for m in Mode},
        "ci": None
        if ci is None
        else {
            "mean": _canon(ci.mean),
            "half_width": _canon(ci.half_width),
            "confidence": _canon(ci.confidence),
            "n": int(ci.n),
        },
        "extras": _canon(result.extras),
    }


def run_matrix() -> Dict[str, Dict[str, Any]]:
    """Run every technique on every fixture workload; canonical results."""
    out: Dict[str, Dict[str, Any]] = {}
    for workload in WORKLOADS:
        trace = collect_reference_trace(
            get_workload(workload, SCALE), SCALE.trace_window
        )
        per_workload: Dict[str, Any] = {}
        for label, technique in technique_matrix().items():
            program = get_workload(workload, SCALE)
            if technique.uses_trace:
                result = technique.run(program, trace=trace)
            else:
                result = technique.run(program)
            per_workload[label] = canonical_result(result)
        out[workload] = per_workload
    return out


def signal_matrix() -> Dict[str, Dict[str, Any]]:
    """PGSS under every phase signal on the adversarial workloads.

    Pins the phase-signal layer the way ``run_matrix`` pins the session
    kernel: the ``bbv`` rows double-check that threading the signal knob
    changed nothing for the default, and the ``mav``/``concat`` rows
    freeze the memory-aware behaviour the ablation experiment reports.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for workload in ADVERSARIAL_NAMES:
        per_workload: Dict[str, Any] = {}
        for signal in PHASE_SIGNALS:
            program = get_workload(workload, SCALE)
            technique = Pgss(
                PgssConfig.from_scale(SCALE, phase_signal=signal)
            )
            per_workload[signal] = canonical_result(technique.run(program))
        out[workload] = per_workload
    return out


def cache_keys() -> Dict[str, str]:
    """Representative figure-harness cache keys (must never drift)."""
    from dataclasses import asdict

    from repro.config import DEFAULT_MACHINE
    from repro.experiments.cache import ResultCache

    cache = ResultCache(GOLDEN_DIR)  # never written to: key() is pure
    machine = asdict(DEFAULT_MACHINE)
    keys = {}
    for label, technique in technique_matrix().items():
        payload = {
            "kind": "technique",
            "benchmark": "183.equake",
            "technique": technique.name,
            "config": {"fixture": label},
            "scale": SCALE.name,
            "ops": SCALE.benchmark_ops,
            "machine": machine,
        }
        keys[label] = cache.key(payload)
    return keys


def fixture_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, results in run_matrix().items():
        path = fixture_path(workload)
        path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    signals_path = GOLDEN_DIR / "signals.json"
    signals_path.write_text(
        json.dumps(signal_matrix(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {signals_path}")
    keys_path = GOLDEN_DIR / "cache_keys.json"
    keys_path.write_text(json.dumps(cache_keys(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {keys_path}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run without --regen (this overwrites fixtures)")
    regenerate()
