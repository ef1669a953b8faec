"""The simulation engine: one program stream, four execution modes.

:class:`SimulationEngine` owns the machine state (cache hierarchy, branch
predictor, pipeline scoreboard) and a :class:`~repro.program.ProgramStream`,
and advances the stream in whichever :class:`Mode` the driving sampling
technique requests.  It also keeps per-mode operation counts and wall-clock
timers — the raw data behind the paper's Figure 13 simulation-rate table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sampling.session import ModeSegment

from ..branch import BimodalPredictor, BranchPredictor, GsharePredictor
from ..config import DEFAULT_MACHINE, MachineConfig
from ..errors import ConfigurationError, SimulationError
from ..memory import CacheHierarchy
from ..program import Program, ProgramStream
from .functional import FunctionalWarmer
from .pipeline import InOrderPipeline

__all__ = ["Mode", "ModeRun", "ModeAccounting", "SimulationEngine"]


class Mode(Enum):
    """Execution modes, mirroring the paper's Figure 13 taxonomy."""

    DETAIL = "detail"            # cycle-accurate, statistics recorded
    DETAIL_WARM = "detail_warm"  # cycle-accurate, statistics discarded
    FUNC_WARM = "func_warm"      # caches + branch predictor only
    FUNC_FAST = "func_fast"      # op counting only

    @property
    def is_detailed(self) -> bool:
        """True for the two cycle-accurate modes (they cost detailed ops)."""
        return self in (Mode.DETAIL, Mode.DETAIL_WARM)


@dataclass(frozen=True)
class ModeRun:
    """Outcome of one :meth:`SimulationEngine.run` call.

    Attributes:
        mode: the mode executed.
        ops: operations consumed (0 if the stream was already exhausted).
        cycles: cycles elapsed (0 for functional modes).
        exhausted: True when the stream ended during the run.
    """

    mode: Mode
    ops: int
    cycles: int
    exhausted: bool

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0.0 when no cycles elapsed)."""
        return self.ops / self.cycles if self.cycles else 0.0


@dataclass
class ModeAccounting:
    """Per-mode operation counts and wall-clock time."""

    ops: Dict[Mode, int] = field(default_factory=lambda: {m: 0 for m in Mode})
    seconds: Dict[Mode, float] = field(default_factory=lambda: {m: 0.0 for m in Mode})

    @property
    def detailed_ops(self) -> int:
        """Ops spent in cycle-accurate modes (detail + detailed warming).

        This is the cost metric of the paper's Figure 12: "the number of
        instructions executed in detailed warming and detailed simulation
        were counted".
        """
        return self.ops[Mode.DETAIL] + self.ops[Mode.DETAIL_WARM]

    @property
    def total_ops(self) -> int:
        """Ops across all modes."""
        return sum(self.ops.values())

    def rate(self, mode: Mode) -> float:
        """Measured simulation rate for *mode* in ops/second."""
        secs = self.seconds[mode]
        return self.ops[mode] / secs if secs > 0 else 0.0

    def merge(self, other: "ModeAccounting") -> None:
        """Accumulate another accounting record into this one."""
        for mode in Mode:
            self.ops[mode] += other.ops[mode]
            self.seconds[mode] += other.seconds[mode]


def _make_predictor(kind: str, table_bits: int) -> BranchPredictor:
    if kind == "gshare":
        return GsharePredictor(table_bits)
    if kind == "bimodal":
        return BimodalPredictor(table_bits)
    raise ConfigurationError(f"unknown predictor kind {kind!r}")


class SimulationEngine:
    """Execution-driven simulator over one program.

    Args:
        program: the workload to execute.
        machine: machine configuration.
        predictor: ``"gshare"`` or ``"bimodal"``.
        signal_tracker: optional phase-signal tracker (duck-typed against
            :class:`~repro.signals.SignalTracker`: any object with a
            ``record(block, taken, k)`` method); when attached it
            observes every event in every mode, mirroring the paper's
            always-on profiling hardware.
        hierarchy: optional pre-built cache hierarchy — the injection
            point for chip-multiprocessor configurations where several
            engines share one L2 (see :mod:`repro.cpu.multicore`).
        stream: optional event source replacing the default
            execution-driven :class:`~repro.program.ProgramStream` — e.g.
            a :class:`~repro.program.trace_io.TraceStream` for
            trace-driven simulation.
        batched: batched execution policy (all four modes: run-length
            fast-forward for the functional modes, the memoized
            run-at-a-time pipeline path for the detailed ones).
            ``None`` (default) auto-detects: batching is used whenever
            the stream supports ``next_events`` and the tracker (if any)
            supports ``record_batch``, and falls back to the scalar
            event loop otherwise.  ``True`` requires a batch-capable
            stream (:class:`ConfigurationError` otherwise); ``False``
            forces the scalar path — the batched/scalar equivalence
            suite and the rate benchmarks rely on this switch.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig = DEFAULT_MACHINE,
        predictor: str = "gshare",
        signal_tracker: Optional[Any] = None,
        hierarchy: Optional[CacheHierarchy] = None,
        stream: Optional[Any] = None,
        batched: Optional[bool] = None,
    ) -> None:
        self.program = program
        self.machine = machine
        self.stream = stream if stream is not None else ProgramStream(program)
        self.hierarchy = hierarchy if hierarchy is not None else CacheHierarchy(machine)
        self.predictor = _make_predictor(predictor, machine.branch_history_bits)
        self.pipeline = InOrderPipeline(machine, self.hierarchy, self.predictor)
        self.warmer = FunctionalWarmer(self.hierarchy, self.predictor)
        self.signal_tracker = signal_tracker
        self.accounting = ModeAccounting()
        if batched and not hasattr(self.stream, "next_events"):
            raise ConfigurationError(
                "batched=True requires a stream with next_events() "
                f"(got {type(self.stream).__name__})"
            )
        self.batched = batched

    @property
    def ops_completed(self) -> int:
        """Dynamic operations retired so far (all modes)."""
        return self.stream.ops_emitted

    @property
    def exhausted(self) -> bool:
        """True once the program has run to completion."""
        return self.stream.exhausted

    def _batching(self, tracker: Optional[Any]) -> bool:
        """Whether this run should take the batched (run-length) path."""
        if self.batched is False:
            return False
        return hasattr(self.stream, "next_events") and (
            tracker is None or hasattr(tracker, "record_batch")
        )

    def _run_scalar(
        self,
        execute: Optional[Callable[..., None]],
        n_ops: int,
        tracker: Optional[Any],
    ) -> int:
        """The scalar event loop shared by every mode."""
        next_event = self.stream.next_event
        record = tracker.record if tracker is not None else None
        ops = 0
        while ops < n_ops:
            event = next_event()
            if event is None:
                break
            if execute is not None:
                execute(event)
            if record is not None:
                record(event.block, event.taken, event.k)
            ops += event.block.n_ops
        return ops

    def _run_batched(self, mode: Mode, n_ops: int, tracker: Optional[Any]) -> int:
        """Advance a functional mode through run-length batches.

        FUNC_FAST consumes whole runs with no per-event work at all;
        FUNC_WARM hands each run to :meth:`FunctionalWarmer.execute_run`,
        which applies its branch outcomes in bulk, credits the silent
        instruction fetches after iteration 0 as one counter add, and
        skips probe-verified net-silent data iterations.  BBV
        accumulation is a single vectorised call per batch.  Both land in
        byte-identical stream/tracker/machine state to the scalar loop.
        """
        runs = self.stream.next_events(n_ops)
        if mode is Mode.FUNC_WARM:
            execute_run = self.warmer.execute_run
            for run in runs:
                execute_run(run)
        ops = 0
        for run in runs:
            ops += run.n * run.block.n_ops
        if tracker is not None and runs:
            tracker.record_batch(runs)
        return ops

    def run(self, mode: Mode, n_ops: int) -> ModeRun:
        """Advance the stream by at least *n_ops* operations in *mode*.

        Stops early (without error) if the program ends.  Returns the ops
        actually consumed and, for detailed modes, the cycles elapsed.
        """
        if n_ops < 0:
            raise SimulationError("n_ops must be non-negative")
        tracker = self.signal_tracker
        cycles = 0
        # Wall-clock only feeds the rate accounting (Fig. 13), never
        # simulated state.
        start_time = time.perf_counter()  # simlint: disable=DET005

        if mode.is_detailed:
            pipeline = self.pipeline
            start_cycle = pipeline.cycle
            if self._batching(tracker):
                runs = self.stream.next_events(n_ops)
                execute_run = pipeline.execute_run
                ops = 0
                for run in runs:
                    execute_run(run)
                    ops += run.n * run.block.n_ops
                if tracker is not None and runs:
                    tracker.record_batch(runs)
            else:
                ops = self._run_scalar(pipeline.execute_event, n_ops, tracker)
            if ops:
                # Issue-cycle delta: window boundaries telescope exactly,
                # so per-window cycles over a full run sum to the full
                # run's cycle count.
                cycles = pipeline.cycle - start_cycle
        elif self._batching(tracker):
            ops = self._run_batched(mode, n_ops, tracker)
        else:
            execute = self.warmer.execute_event if mode is Mode.FUNC_WARM else None
            ops = self._run_scalar(execute, n_ops, tracker)

        elapsed = time.perf_counter() - start_time  # simlint: disable=DET005
        self.accounting.ops[mode] += ops
        self.accounting.seconds[mode] += elapsed
        return ModeRun(mode=mode, ops=ops, cycles=cycles, exhausted=self.stream.exhausted)

    def run_segment(self, segment: "ModeSegment") -> ModeRun:
        """Execute one sampling-plan segment (the session-facing API).

        :class:`~repro.sampling.session.SamplingSession` drives the
        engine exclusively through this entry point, so every technique
        inherits the same batched dispatch and accounting.  The segment
        is duck-typed (``mode`` + ``ops``), keeping the engine free of a
        hard dependency on the sampling layer.
        """
        return self.run(segment.mode, segment.ops)

    def run_to_end(self, mode: Mode, chunk_ops: int = 1_000_000) -> ModeRun:
        """Run in *mode* until the program completes; returns the total."""
        total_ops = 0
        total_cycles = 0
        while not self.stream.exhausted:
            result = self.run(mode, chunk_ops)
            total_ops += result.ops
            total_cycles += result.cycles
        return ModeRun(mode=mode, ops=total_ops, cycles=total_cycles, exhausted=True)

    def snapshot(self) -> Dict[str, Any]:
        """Capture machine + stream state (a checkpoint / livepoint)."""
        state: Dict[str, Any] = {
            "stream": self.stream.snapshot(),
            "hierarchy": self.hierarchy.snapshot(),
            "predictor": self.predictor.snapshot(),
            "pipeline_cycle": self.pipeline.cycle,
            "pipeline_timing": self.pipeline.timing_snapshot(),
        }
        if self.signal_tracker is not None and hasattr(
            self.signal_tracker, "snapshot"
        ):
            # Key kept as "bbv" for checkpoint-format stability (the BBV
            # was the only signal when the format was fixed).
            state["bbv"] = self.signal_tracker.snapshot()
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore a checkpoint captured by :meth:`snapshot`."""
        self.stream.restore(state["stream"])
        self.hierarchy.restore(state["hierarchy"])
        self.predictor.restore(state["predictor"])
        self.pipeline.restore_timing(
            state["pipeline_cycle"], state["pipeline_timing"]
        )
        if "bbv" in state and self.signal_tracker is not None:
            self.signal_tracker.restore(state["bbv"])
