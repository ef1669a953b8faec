"""Full-detail simulation and the instrumented reference trace.

:class:`FullDetail` runs the entire program cycle-accurately — the ground
truth every sampling technique's error is measured against.

:func:`collect_reference_trace` additionally records, per fixed-length
window, the operations, cycles, and raw BBV register contents.  One such
pass per benchmark powers all the offline analyses (Figs. 2, 3, 7-10),
SimPoint's profiling stage, and the true IPC — exactly the data the paper's
authors extracted from their own full simulations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from ..signals import BbvTracker, ReducedBbvHash
from ..config import DEFAULT_MACHINE, MachineConfig
from ..cpu import Mode, OutcomeRecord, SimulationEngine
from ..cpu.checkpoints import CheckpointFile
from ..errors import SamplingError
from ..events import EventBus
from ..program import Program
from .base import SamplingResult, SamplingTechnique, final_result
from .session import ModeSegment, SamplingSession, SegmentRole, run_to_end_plan

__all__ = [
    "FullDetail",
    "ReferenceTrace",
    "WINDOWS_PER_CHUNK",
    "collect_reference_trace",
]

#: Windows run through one engine pass by the windowed recorders
#: (:func:`collect_reference_trace`, ``SimPoint.profile_intervals``).
#: Each window still gets its own ops, cycles and BBV.
WINDOWS_PER_CHUNK = 64


class ReferenceTrace:
    """Windowed record of one full-detail run.

    Attributes:
        program: workload name.
        window_ops_target: nominal window length in ops (actual windows
            end on basic-block boundaries and may overshoot slightly).
        ops: ``(n,)`` actual ops per window.
        cycles: ``(n,)`` cycles per window.
        bbvs: ``(n, dim)`` raw (unnormalised) BBV per window.
    """

    def __init__(
        self,
        program: str,
        window_ops_target: int,
        ops: np.ndarray,
        cycles: np.ndarray,
        bbvs: np.ndarray,
    ) -> None:
        if not (len(ops) == len(cycles) == len(bbvs)):
            raise SamplingError("trace arrays must have equal lengths")
        self.program = program
        self.window_ops_target = int(window_ops_target)
        self.ops = np.asarray(ops, dtype=np.int64)
        self.cycles = np.asarray(cycles, dtype=np.int64)
        self.bbvs = np.asarray(bbvs, dtype=np.float64)

    @property
    def n_windows(self) -> int:
        """Number of recorded windows."""
        return int(self.ops.shape[0])

    @property
    def total_ops(self) -> int:
        """Total operations executed."""
        return int(self.ops.sum())

    @property
    def total_cycles(self) -> int:
        """Total cycles elapsed."""
        return int(self.cycles.sum())

    @property
    def true_ipc(self) -> float:
        """Whole-program IPC — the ground truth for error metrics."""
        return self.total_ops / self.total_cycles

    @property
    def ipcs(self) -> np.ndarray:
        """Per-window IPC series."""
        return self.ops / np.maximum(self.cycles, 1)

    def normalized_bbvs(self) -> np.ndarray:
        """Per-window BBVs scaled to unit L2 norm (zero rows stay zero)."""
        norms = np.sqrt((self.bbvs**2).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        return self.bbvs / norms

    def aggregate(self, factor: int) -> "ReferenceTrace":
        """Merge every *factor* consecutive windows into one.

        Raw BBVs add, ops and cycles add; a final partial group is kept.
        This is how one fine-grained pass serves every coarser sampling
        period.
        """
        if factor < 1:
            raise SamplingError("factor must be at least 1")
        if factor == 1:
            return self
        n = self.n_windows
        groups = (n + factor - 1) // factor
        ops = np.zeros(groups, dtype=np.int64)
        cycles = np.zeros(groups, dtype=np.int64)
        bbvs = np.zeros((groups, self.bbvs.shape[1]), dtype=np.float64)
        for g in range(groups):
            lo, hi = g * factor, min((g + 1) * factor, n)
            ops[g] = self.ops[lo:hi].sum()
            cycles[g] = self.cycles[lo:hi].sum()
            bbvs[g] = self.bbvs[lo:hi].sum(axis=0)
        return ReferenceTrace(
            self.program, self.window_ops_target * factor, ops, cycles, bbvs
        )

    def to_period(self, period_ops: int) -> "ReferenceTrace":
        """Aggregate to a coarser sampling period given in ops.

        *period_ops* must be a multiple of the trace's window length.
        """
        if period_ops % self.window_ops_target:
            raise SamplingError(
                f"period {period_ops} is not a multiple of the "
                f"{self.window_ops_target}-op trace window"
            )
        return self.aggregate(period_ops // self.window_ops_target)

    def save(self, path: Path) -> None:
        """Serialise to a compressed ``.npz`` file.

        Writes through an open handle so the file is created at *path*
        exactly — ``np.savez_compressed`` would otherwise append ``.npz``
        to the name, which breaks atomic write-to-tmp-then-rename
        publication in the result cache.
        """
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                program=np.array(self.program),
                window=np.array(self.window_ops_target),
                ops=self.ops,
                cycles=self.cycles,
                bbvs=self.bbvs,
            )

    @classmethod
    def load(cls, path: Path) -> "ReferenceTrace":
        """Load a trace previously written by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        return cls(
            program=str(data["program"]),
            window_ops_target=int(data["window"]),
            ops=data["ops"],
            cycles=data["cycles"],
            bbvs=data["bbvs"],
        )


def collect_reference_trace(
    program: Program,
    window_ops: int,
    machine: MachineConfig = DEFAULT_MACHINE,
    hash_seed: int = 12345,
    bus: Optional[EventBus] = None,
    checkpoint: Optional[CheckpointFile] = None,
    checkpoint_windows: int = 0,
) -> ReferenceTrace:
    """Run *program* fully in detail, recording per-window (ops, cycles, BBV).

    Args:
        program: the workload.
        window_ops: nominal window length in operations.
        machine: machine configuration.
        hash_seed: seed of the 5-bit BBV hash (must match the hash used by
            online techniques for trace-derived analyses to be comparable).
        bus: optional event bus observing the instrumented pass.
        checkpoint: optional :class:`~repro.cpu.checkpoints.CheckpointFile`
            making the pass resumable — the engine snapshot and the
            partial window arrays are persisted every *checkpoint_windows*
            windows, an existing snapshot is restored before running, and
            the file is cleared once the trace completes.  A resumed run
            is byte-identical to an uninterrupted one (the engine
            snapshot restores stream position, RNG state, caches,
            predictor, and BBV registers exactly).
        checkpoint_windows: windows between two checkpoint saves
            (``<= 0`` disables periodic saving even when *checkpoint* is
            given).
    """
    if window_ops <= 0:
        raise SamplingError("window_ops must be positive")
    tracker = BbvTracker(ReducedBbvHash(seed=hash_seed))
    engine = SimulationEngine(program, machine=machine, signal_tracker=tracker)
    session = SamplingSession(engine, bus=bus)
    ops_list: List[int] = []
    cycles_list: List[int] = []
    bbv_list: List[Optional[np.ndarray]] = []
    if checkpoint is not None:
        saved = checkpoint.load()
        if saved is not None:
            engine.restore(saved["state"])
            extras = saved["extras"]
            ops_list = [int(v) for v in extras["ops"]]
            cycles_list = [int(v) for v in extras["cycles"]]
            bbv_list = [np.asarray(b, dtype=np.float64) for b in extras["bbvs"]]

    segment = ModeSegment(Mode.DETAIL, window_ops, role=SegmentRole.PROFILE)
    save_to = checkpoint if checkpoint_windows > 0 else None
    windows_since_save = 0
    while not engine.exhausted:
        chunk = WINDOWS_PER_CHUNK
        if save_to is not None:
            # A chunk never crosses a save.
            chunk = min(chunk, checkpoint_windows - windows_since_save)
        windows = session.run_windows(segment, chunk)
        if not windows:
            break
        for outcome, vector in windows:
            ops_list.append(outcome.run.ops)
            cycles_list.append(outcome.run.cycles)
            bbv_list.append(vector)
        windows_since_save += len(windows)
        if (
            save_to is not None
            and windows_since_save >= checkpoint_windows
            and not engine.exhausted
        ):
            windows_since_save = 0
            # The snapshot is taken on a window boundary, right after
            # the last window's drain, so the restored engine continues
            # exactly where that window ended.
            save_to.save(
                engine.ops_completed,
                engine.snapshot(),
                extras={
                    "ops": list(ops_list),
                    "cycles": list(cycles_list),
                    "bbvs": [np.array(b) for b in bbv_list],
                },
            )

    if checkpoint is not None:
        checkpoint.clear()
    return ReferenceTrace(
        program=program.name,
        window_ops_target=window_ops,
        ops=np.array(ops_list, dtype=np.int64),
        cycles=np.array(cycles_list, dtype=np.int64),
        bbvs=np.array(bbv_list, dtype=np.float64),
    )


class FullDetail(SamplingTechnique):
    """Whole-program detailed simulation (the no-sampling baseline)."""

    name = "FullDetail"
    config: None

    def __init__(self, machine: MachineConfig = DEFAULT_MACHINE) -> None:
        super().__init__(None, machine)

    @property
    def replays_outcomes(self) -> bool:
        """Always: the whole program is one detailed replay."""
        return True

    def run(
        self,
        program: Program,
        bus: Optional[EventBus] = None,
        outcomes: Optional[OutcomeRecord] = None,
        **kwargs: Any,
    ) -> SamplingResult:
        """Simulate every operation cycle-accurately; exact IPC, max cost
        (replaying *outcomes* when given)."""
        engine = SimulationEngine(program, machine=self.machine, outcomes=outcomes)
        session = SamplingSession(engine, bus=bus)
        session.execute(run_to_end_plan(Mode.DETAIL, measure=True))
        total_ops = sum(s.ops for s in session.samples)
        total_cycles = sum(s.cycles for s in session.samples)
        ipc = total_ops / total_cycles if total_cycles else 0.0
        return final_result(self.name, program.name, ipc, 0, engine.accounting, bus)
