"""The shared experiment context.

Owns the scale configuration, machine model, and result cache, and
provides the primitives every figure module needs: fresh programs, cached
reference traces, true IPCs, and cached technique runs.  Figures are run
through a :class:`repro.fleet.QueueService`, which executes their cells
first and then assembles each figure from the warm cache.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..config import DEFAULT_MACHINE, CacheConfig, MachineConfig, Scale, ScaleConfig
from ..cpu.checkpoints import CheckpointFile
from ..program import Program, WORKLOAD_NAMES, get_workload
from ..sampling.base import SamplingTechnique
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

    def to_doc(self) -> Dict[str, Any]:
        """JSON document from which :meth:`from_doc` rebuilds this context.

        Holds the scale, machine, cache directory and benchmark list, so a
        worker on any host computes the same cache entries.  The
        checkpoint settings belong to the worker and are not part of it.
        """
        return {
            "scale": asdict(self.scale),
            "machine": asdict(self.machine),
            "cache_dir": str(self.cache.directory),
            "benchmarks": list(self.benchmarks),
        }

    @classmethod
    def from_doc(
        cls,
        doc: Dict[str, Any],
        checkpoint_dir: Optional[Path] = None,
        checkpoint_windows: int = 0,
    ) -> "ExperimentContext":
        """Rebuild a context from a (JSON round-tripped) :meth:`to_doc`.

        *checkpoint_dir* and *checkpoint_windows* are the executing
        worker's own settings (see the class docstring).
        """
        scale = dict(doc["scale"])
        for key in (
            "pgss_periods",
            "thresholds",
            "simpoint_intervals",
            "simpoint_clusters",
        ):
            scale[key] = tuple(scale[key])
        scale["simpoint_extra"] = tuple(
            (int(a), int(b)) for a, b in scale["simpoint_extra"]
        )
        machine = dict(doc["machine"])
        for key in ("l1i", "l1d", "l2"):
            machine[key] = CacheConfig(**machine[key])
        return cls(
            scale=ScaleConfig(**scale),
            machine=MachineConfig(**machine),
            cache_dir=Path(doc["cache_dir"]),
            benchmarks=doc["benchmarks"],
            checkpoint_dir=checkpoint_dir,
            checkpoint_windows=checkpoint_windows,
        )

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
            "machine": asdict(self.machine),
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
        self, benchmark: str, technique: SamplingTechnique
    ) -> Dict[str, Any]:
        """Run *technique* on *benchmark* with caching.

        The cache key is derived from the run itself: the technique's
        full config dataclass (``{}`` for the config-less
        :class:`~repro.sampling.full.FullDetail`), the machine the
        technique simulates, and the scale fields the runs read.  No
        caller describes its configuration by hand, so two runs that
        differ in any config field never share an entry.  A technique
        that declares ``uses_trace`` runs on the benchmark's cached
        reference trace; every other one runs on a fresh program.

        Returns the result's :meth:`~repro.sampling.SamplingResult.to_doc`.
        """
        config = technique.config
        payload = {
            "kind": "technique",
            "benchmark": benchmark,
            "technique": technique.name,
            "config": asdict(config) if config is not None else {},
            "scale": self.scale.name,
            "ops": self.scale.benchmark_ops,
            "trace_window": self.scale.trace_window,
            "machine": asdict(technique.machine),
        }

        def compute() -> Dict[str, Any]:
            program = self.program(benchmark)
            if technique.uses_trace:
                result = technique.run(program, trace=self.trace(benchmark))
            else:
                result = technique.run(program)
            return result.to_doc()

        return self.cache.json(payload, compute)

