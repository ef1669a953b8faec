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
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sampling.session import ModeSegment
    from .record import OutcomeRecord

from ..branch import BimodalPredictor, BranchPredictor, GsharePredictor
from ..config import DEFAULT_MACHINE, MachineConfig
from ..errors import ConfigurationError, SimulationError
from ..memory import CacheHierarchy
from ..program import Program, ProgramStream
from ..program.stream import BlockRun
from .functional import FunctionalWarmer, Outcomes
from .pipeline import InOrderPipeline, WindowMarks

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
            ``record_batch(runs)`` method); when attached it observes
            every batch in every mode, mirroring the paper's always-on
            profiling hardware.
        hierarchy: optional pre-built cache hierarchy — the injection
            point for chip-multiprocessor configurations where several
            engines share one L2 (see :mod:`repro.cpu.multicore`).
        stream: optional event source replacing the default
            execution-driven :class:`~repro.program.ProgramStream` — e.g.
            a :class:`~repro.program.trace_io.TraceStream` for
            trace-driven simulation.  It must provide ``next_events``.
        outcomes: an :class:`~repro.cpu.record.OutcomeRecord` of this
            program to replay from.  Such a *replaying* engine simulates
            no caches: DETAIL_WARM and DETAIL replay the timing of the
            record's outcomes, FUNC_WARM only advances the stream and
            the tracker (the record holds the warm state), and FUNC_FAST
            runs as usual.  Each FUNC_WARM and detailed batch is checked
            against the record before the tracker takes it: a batch past
            the record's end, or of another stream, raises
            :class:`~repro.errors.SimulationError`.  Its ``hierarchy``
            is the record's, read for latencies only.
        recorder: the record this engine's architectural passes write to
            (:class:`~repro.cpu.record.OutcomeRecord` builds its own
            *recording* engine with it).  A recording engine cannot run
            FUNC_FAST, which would leave a gap in the record.

    Raises:
        ConfigurationError: if the stream has no ``next_events``, the
            tracker no ``record_batch``, both *outcomes* and *recorder*
            are given, or *outcomes* was recorded of another program
            (name, seed or op budget), on another machine or with
            another predictor.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig = DEFAULT_MACHINE,
        predictor: str = "gshare",
        signal_tracker: Optional[Any] = None,
        hierarchy: Optional[CacheHierarchy] = None,
        stream: Optional[Any] = None,
        outcomes: Optional["OutcomeRecord"] = None,
        recorder: Optional["OutcomeRecord"] = None,
    ) -> None:
        self.program = program
        self.machine = machine
        self.stream = stream if stream is not None else ProgramStream(program)
        if not hasattr(self.stream, "next_events"):
            raise ConfigurationError(
                "the stream must provide next_events() "
                f"(got {type(self.stream).__name__})"
            )
        if signal_tracker is not None and not hasattr(signal_tracker, "record_batch"):
            raise ConfigurationError(
                "the signal tracker must provide record_batch() "
                f"(got {type(signal_tracker).__name__})"
            )
        if outcomes is not None and recorder is not None:
            raise ConfigurationError("an engine either records or replays, not both")
        if outcomes is not None and not outcomes.matches(program, machine):
            recorded = outcomes.program
            raise ConfigurationError(
                f"a record of {recorded.name} (seed {recorded.seed}, "
                f"{recorded.total_ops} ops) cannot replay "
                f"{program.name} (seed {program.seed}, {program.total_ops} ops)"
                + ("" if machine == outcomes.machine else " on another machine")
            )
        self.outcomes = outcomes
        self.recorder = recorder
        if outcomes is not None and hierarchy is None:
            # The timing replay reads the hierarchy's latencies only, so
            # a replaying engine borrows its record's instead of building
            # caches it would never touch.
            hierarchy = outcomes.engine.hierarchy
        self.hierarchy = hierarchy if hierarchy is not None else CacheHierarchy(machine)
        self.predictor = _make_predictor(predictor, machine.branch_history_bits)
        if outcomes is not None and type(self.predictor) is not type(
            outcomes.engine.predictor
        ):
            raise ConfigurationError(
                f"a record made with a {type(outcomes.engine.predictor).__name__} "
                f"cannot replay a {type(self.predictor).__name__}"
            )
        self.pipeline = InOrderPipeline(machine, self.hierarchy, self.predictor)
        self.warmer = FunctionalWarmer(self.hierarchy, self.predictor)
        self.signal_tracker = signal_tracker
        self.accounting = ModeAccounting()

    @property
    def ops_completed(self) -> int:
        """Dynamic operations retired so far (all modes)."""
        return self.stream.ops_emitted

    @property
    def exhausted(self) -> bool:
        """True once the program has run to completion."""
        return self.stream.exhausted

    def run(self, mode: Mode, n_ops: int) -> ModeRun:
        """Advance the stream by at least *n_ops* operations in *mode*.

        Stops early (without error) if the program ends.  Returns the ops
        actually consumed and, for detailed modes, the cycles elapsed.

        Every mode takes one run-length batch from the stream's
        ``next_events``.  FUNC_FAST consumes whole runs with no per-event
        work at all.  The other three modes hand the batch to the one
        architectural pass, :meth:`FunctionalWarmer.execute_batch`: branch
        outcomes run by run in bulk, the silent instruction fetches after
        iteration 0 as one counter add, and the data stream in program
        order through one kernel call per stretch between L1I misses.  For
        DETAIL and DETAIL_WARM the pass also records each slice's misses,
        mispredictions and fetch stalls, and the pipeline replays their
        timing (:meth:`InOrderPipeline.replay`).  The signal tracker takes
        the batch in one closed-form call.  All of it lands in the state
        an event-at-a-time loop over the expanded runs would leave, byte
        for byte; ``tests/scalar_reference.py`` keeps that loop as the
        equivalence suites' reference.
        """
        if n_ops < 0:
            raise SimulationError("n_ops must be non-negative")
        windows = self._execute(mode, n_ops, 1, drain=False)
        if windows:
            return windows[0][0]
        return ModeRun(mode=mode, ops=0, cycles=0, exhausted=self.stream.exhausted)

    def run_windows(
        self, mode: Mode, window_ops: int, count: int
    ) -> List[Tuple[ModeRun, Optional[np.ndarray]]]:
        """Run up to *count* consecutive *window_ops* windows in *mode*.

        Each window is one ``next_events(window_ops)`` batch, but all of
        them go through one architectural pass; in the detailed modes its
        timing replay notes the cycle at each window's end
        (:class:`~repro.cpu.pipeline.WindowMarks`).  The signal tracker
        takes one window at a time and is drained with
        ``take_vector(normalize=False)`` at each window's end.

        Returns one ``(ModeRun, raw vector)`` pair per window (the vector
        is ``None`` without a tracker): what *count* calls of
        :meth:`run` would return, each followed by that drain.  Stops
        after the window that ends the program, so an exhausted stream
        returns fewer windows (none if it was already exhausted).
        """
        if window_ops <= 0:
            raise SimulationError("window_ops must be positive")
        if count < 0:
            raise SimulationError("count must be non-negative")
        return self._execute(mode, window_ops, count, drain=True)

    def _execute(
        self, mode: Mode, n_ops: int, count: int, drain: bool
    ) -> List[Tuple[ModeRun, Optional[np.ndarray]]]:
        """The execution core of :meth:`run` and :meth:`run_windows`:
        up to *count* batches of *n_ops*, one architectural pass over all
        of them, one window per batch."""
        if mode is Mode.FUNC_FAST and self.recorder is not None:
            raise SimulationError(
                "a recording engine cannot skip warming: its record "
                "would have a gap"
            )
        # Wall-clock only feeds the rate accounting (Fig. 13), never
        # simulated state.
        start_time = time.perf_counter()  # simlint: disable=DET005
        stream = self.stream
        tracker = self.signal_tracker
        start_ops = stream.ops_emitted
        # A replaying engine checks every batch it does not skip against
        # its record before the tracker sees it.
        check = self.outcomes.locate if self.outcomes is not None else None
        ends: List[int] = []  # op offset of each window's end
        vectors: List[Optional[np.ndarray]] = []
        passed: List[BlockRun] = []  # what the architectural pass takes
        for _ in range(count):
            batch_start = stream.ops_emitted
            runs = stream.next_events(n_ops)
            if not runs:
                break
            if check is not None and mode is not Mode.FUNC_FAST:
                check(runs, batch_start)
            ends.append(stream.ops_emitted - start_ops)
            if tracker is not None:
                tracker.record_batch(runs)
            vectors.append(
                tracker.take_vector(normalize=False)
                if drain and tracker is not None
                else None
            )
            if mode is not Mode.FUNC_FAST:
                passed.extend(runs)

        start_cycle = self.pipeline.cycle
        cycle_ends = [start_cycle] * len(ends)  # the cycle at each window's end
        if passed and mode.is_detailed:
            # The last window ends where the pass does; the replay marks
            # the ones before it.
            marks = WindowMarks(ends[:-1])
            replay = self.pipeline.replay
            self._architectural_pass(
                passed, start_ops, partial(replay, marks=marks) if marks.ends else replay
            )
            cycle_ends = marks.cycles + [self.pipeline.cycle]
        elif passed:
            self._architectural_pass(passed, start_ops, None)

        # Issue-cycle deltas: window boundaries telescope exactly, so
        # per-window cycles over a full run sum to its cycle count.
        windows: List[Tuple[ModeRun, Optional[np.ndarray]]] = []
        last_ops = 0
        last_cycle = start_cycle
        for k, (end, cycle) in enumerate(zip(ends, cycle_ends)):
            exhausted = k == len(ends) - 1 and stream.exhausted
            windows.append(
                (ModeRun(mode, end - last_ops, cycle - last_cycle, exhausted), vectors[k])
            )
            last_ops = end
            last_cycle = cycle

        elapsed = time.perf_counter() - start_time  # simlint: disable=DET005
        self.accounting.ops[mode] += ends[-1] if ends else 0
        self.accounting.seconds[mode] += elapsed
        return windows

    def _architectural_pass(
        self,
        runs: List[BlockRun],
        start_op: int,
        replay: Optional[Callable[[List[BlockRun], Outcomes], None]],
    ) -> None:
        """Apply *runs*, a batch from op *start_op*, and hand each slice's
        outcomes to *replay* (the detailed modes): the warmer's pass,
        which a recording engine also records, or, on a replaying engine,
        the record's outcomes (none in FUNC_WARM: the record is the warm
        state)."""
        if self.outcomes is not None:
            if replay is not None:
                self.outcomes.replay(runs, start_op, replay)
        elif self.recorder is not None:
            self.warmer.execute_batch(runs, self.recorder.recording(start_op, replay))
        else:
            self.warmer.execute_batch(runs, replay)

    def run_segment(self, segment: "ModeSegment") -> ModeRun:
        """Execute one sampling-plan segment (the session-facing API).

        :class:`~repro.sampling.session.SamplingSession` drives the
        engine exclusively through this entry point, so every technique
        inherits the same batched execution and accounting.  The segment
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
