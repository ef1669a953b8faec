"""Chip-multiprocessor extension (paper Section 7 future work).

The paper's evaluation machine "is meant to be roughly representative of a
single core on a modern chip multiprocessor (CMP) system" and its future
work says "Work is ongoing to extend PGSS to multithreaded and multicore
processors."  This module provides that extension: N cores, each with
private L1 caches, branch predictor, pipeline and program, sharing one L2.

Timing model: cores are loosely coupled.  Each core's pipeline keeps its
own cycle clock; the scheduler advances cores round-robin in small op
slices so their L2 accesses interleave — capturing the first-order CMP
effect (shared-L2 capacity/conflict interference) without modelling bus
bandwidth or coherence traffic.  The approximation is documented in
DESIGN.md and is conservative for the sampling questions studied here:
what matters to PGSS is that each core's IPC shifts when co-runners
pollute the shared cache, which this model produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from ..sampling.pgss import PgssConfig

from ..signals import BbvTracker, ReducedBbvHash
from ..config import DEFAULT_MACHINE, MachineConfig
from ..errors import ConfigurationError
from ..memory import CacheHierarchy
from ..memory.cache import Cache
from ..program import Program
from .engine import Mode, SimulationEngine

__all__ = ["MultiCoreEngine", "MultiCorePgss", "CoreResult"]


@dataclass
class CoreResult:
    """Per-core outcome of a multicore run.

    Attributes:
        core: core index.
        program: workload the core ran.
        ops: operations retired.
        cycles: cycles elapsed on that core's clock.
    """

    core: int
    program: str
    ops: int
    cycles: int

    @property
    def ipc(self) -> float:
        """The core's IPC (0.0 when idle)."""
        return self.ops / self.cycles if self.cycles else 0.0


class MultiCoreEngine:
    """N single-threaded cores sharing one L2 cache.

    Args:
        programs: one workload per core.
        machine: per-core configuration (the shared L2 uses its ``l2``
            geometry).
        slice_ops: how many ops a core advances before yielding to the
            next — the interleaving grain of shared-L2 accesses.
        with_bbv: attach a BBV tracker to every core (needed for PGSS).
    """

    def __init__(
        self,
        programs: Sequence[Program],
        machine: MachineConfig = DEFAULT_MACHINE,
        slice_ops: int = 2_000,
        with_bbv: bool = False,
    ) -> None:
        if not programs:
            raise ConfigurationError("at least one core/program is required")
        if slice_ops <= 0:
            raise ConfigurationError("slice_ops must be positive")
        self.machine = machine
        self.slice_ops = slice_ops
        self.shared_l2 = Cache(machine.l2, "sharedL2")
        self.engines: List[SimulationEngine] = []
        for core, program in enumerate(programs):
            # Distinct per-core address spaces (the salt models physical
            # page disjointness; without it identical generators would
            # constructively share L2 lines).
            hierarchy = CacheHierarchy(
                machine, shared_l2=self.shared_l2, address_salt=core << 36
            )
            tracker = (
                BbvTracker(ReducedBbvHash(seed=12345 + core)) if with_bbv else None
            )
            self.engines.append(
                SimulationEngine(
                    program,
                    machine=machine,
                    signal_tracker=tracker,
                    hierarchy=hierarchy,
                )
            )

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return len(self.engines)

    @property
    def all_exhausted(self) -> bool:
        """True once every core's program has completed."""
        return all(engine.exhausted for engine in self.engines)

    def run_all(self, mode: Mode = Mode.DETAIL) -> List[CoreResult]:
        """Run every core to completion in *mode*, interleaved round-robin.

        Returns one :class:`CoreResult` per core.  Cores that finish early
        simply drop out of the rotation (no idle-cycle modelling).
        """
        ops = [0] * self.n_cores
        cycles = [0] * self.n_cores
        live = set(range(self.n_cores))
        while live:
            for core in sorted(live):
                engine = self.engines[core]
                result = engine.run(mode, self.slice_ops)
                ops[core] += result.ops
                cycles[core] += result.cycles
                if engine.exhausted:
                    live.discard(core)
        return [
            CoreResult(
                core=i,
                program=self.engines[i].program.name,
                ops=ops[i],
                cycles=cycles[i],
            )
            for i in range(self.n_cores)
        ]


class MultiCorePgss:
    """PGSS-Sim applied per core on a shared-L2 CMP.

    Each core runs its own Fig.-5 loop (own BBV tracker, classifier, and
    sample budget) while the scheduler interleaves the cores' execution so
    shared-L2 interference shapes what each core's samples observe.

    Args:
        config_factory: callable mapping a core index to its
            :class:`~repro.sampling.PgssConfig` (pass a single shared
            config with ``lambda core: config``).
        machine: per-core machine configuration.
    """

    def __init__(
        self,
        config_factory: Callable[[int], "PgssConfig"],
        machine: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        self.config_factory = config_factory
        self.machine = machine

    def run(self, programs: Sequence[Program]) -> Dict[int, object]:
        """Run PGSS on every core; returns core index -> SamplingResult."""
        from ..sampling.pgss import PgssController

        mc = MultiCoreEngine(programs, machine=self.machine, with_bbv=True)
        controllers = [
            PgssController(engine, self.config_factory(core))
            for core, engine in enumerate(mc.engines)
        ]
        live = set(range(mc.n_cores))
        while live:
            # One Fig.-5 iteration per core per rotation: each iteration
            # spans one BBV period, so cores advance at comparable rates
            # and their shared-L2 traffic interleaves at period grain.
            for core in sorted(live):
                if not controllers[core].step():
                    live.discard(core)
        return {core: controllers[core].result() for core in range(mc.n_cores)}
