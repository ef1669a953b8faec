"""The shared experiment context.

Owns the scale configuration, machine model, and result cache, and
provides the primitives every figure module needs: fresh programs, cached
reference traces, true IPCs, and cached technique runs.  Figures are run
through :class:`repro.fleet.ExperimentService`, which executes their
cells first and then assembles each figure from the warm cache.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..config import DEFAULT_MACHINE, MachineConfig, Scale, ScaleConfig
from ..cpu.checkpoints import CheckpointFile
from ..program import Program, WORKLOAD_NAMES, get_workload
from ..sampling.base import SamplingResult, SamplingTechnique
from ..sampling.full import ReferenceTrace, collect_reference_trace
from .cache import ResultCache

__all__ = ["ExperimentContext"]


class ExperimentContext:
    """Everything a figure module needs to run.

    Args:
        scale: interval-scale configuration (default: ``Scale.SCALED``).
        machine: simulated machine.
        cache_dir: result-cache directory (default: ``<repo>/.expcache``).
        benchmarks: workload subset (default: the paper's ten).
        checkpoint_dir: when set, long DETAIL cells (reference-trace
            collection) persist periodic engine checkpoints under this
            directory and resume from them on a retry — the fleet worker
            points this at the queue's per-task checkpoint directory.
        checkpoint_windows: trace windows between two checkpoint saves
            (ignored unless ``checkpoint_dir`` is set).
    """

    def __init__(
        self,
        scale: ScaleConfig = Scale.SCALED,
        machine: MachineConfig = DEFAULT_MACHINE,
        cache_dir: Optional[Path] = None,
        benchmarks: Optional[List[str]] = None,
        checkpoint_dir: Optional[Path] = None,
        checkpoint_windows: int = 0,
    ) -> None:
        self.scale = scale
        self.machine = machine
        self.cache = ResultCache(cache_dir)
        self.benchmarks = list(benchmarks) if benchmarks else list(WORKLOAD_NAMES)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_windows = int(checkpoint_windows)

    def _machine_key(self) -> Dict[str, Any]:
        return asdict(self.machine)

    def program(self, name: str) -> Program:
        """A fresh instance of workload *name* at this context's scale."""
        return get_workload(name, self.scale)

    def trace(self, name: str) -> ReferenceTrace:
        """Cached instrumented full-detail trace of workload *name*.

        When the context has a checkpoint directory, a cache miss is
        computed resumably: the engine snapshot is persisted every
        ``checkpoint_windows`` windows under a file keyed exactly like
        the cache entry, so a killed worker's successor continues from
        the last snapshot instead of op 0 — with byte-identical output.
        """
        payload = {
            "kind": "trace",
            "benchmark": name,
            "scale": self.scale.name,
            "ops": self.scale.benchmark_ops,
            "window": self.scale.trace_window,
            "machine": self._machine_key(),
        }

        def compute() -> ReferenceTrace:
            checkpoint = None
            if self.checkpoint_dir is not None and self.checkpoint_windows > 0:
                checkpoint = CheckpointFile(
                    self.checkpoint_dir / f"{self.cache.key(payload)}.trace.ckpt"
                )
            return collect_reference_trace(
                self.program(name),
                self.scale.trace_window,
                machine=self.machine,
                checkpoint=checkpoint,
                checkpoint_windows=self.checkpoint_windows,
            )

        return self.cache.trace(payload, compute)

    def true_ipc(self, name: str) -> float:
        """Ground-truth IPC of workload *name* (from the cached trace)."""
        return self.trace(name).true_ipc

    def run_cached(
        self,
        benchmark: str,
        technique: SamplingTechnique,
        config_key: Dict[str, Any],
        runner: Optional[Callable[[], SamplingResult]] = None,
    ) -> Dict[str, Any]:
        """Run *technique* on *benchmark* with caching.

        Args:
            benchmark: workload name.
            technique: configured technique instance.
            config_key: JSON-able description of the configuration (cache
                key component).
            runner: optional override of the default
                ``technique.run(program)`` call (e.g. to pass a trace).

        Returns a plain dict with the result fields needed by the figures.
        """
        payload = {
            "kind": "technique",
            "benchmark": benchmark,
            "technique": technique.name,
            "config": config_key,
            "scale": self.scale.name,
            "ops": self.scale.benchmark_ops,
            "machine": self._machine_key(),
        }

        def compute() -> Dict[str, Any]:
            result = runner() if runner else technique.run(self.program(benchmark))
            return {
                "technique": result.technique,
                "benchmark": result.program,
                "ipc_estimate": result.ipc_estimate,
                "detailed_ops": result.detailed_ops,
                "total_ops": result.total_ops,
                "n_samples": result.n_samples,
                "extras": _jsonable(result.extras),
            }

        return self.cache.json(payload, compute)


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of extras to JSON-compatible values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)
