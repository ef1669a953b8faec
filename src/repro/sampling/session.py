"""The sampling-session kernel: one driver for every technique's loop.

Every sampled-simulation technique — SMARTS' periodic tiny samples,
SimPoint's profile-then-measure passes, PGSS' confidence-driven phase
sampling — is at bottom the same thing: a *schedule of engine-mode
segments* plus an estimator over the measured segments.  This module
provides that common substrate (DESIGN.md §13):

* :class:`ModeSegment` — one declarative schedule entry: an engine
  :class:`~repro.cpu.Mode`, an op budget, a ``role`` label, and whether
  the segment is *measured* (its (ops, cycles) recorded as a sample);
* :class:`SamplingSession` — executes segments on a
  :class:`~repro.cpu.SimulationEngine`, records
  :class:`SessionSample`\\ s, and emits typed events
  (:class:`~repro.events.SegmentStart`,
  :class:`~repro.events.SegmentEnd`,
  :class:`~repro.events.SampleTaken`, ...) on an
  :class:`~repro.events.EventBus`;
* **plans** — generators that yield :class:`ModeSegment`\\ s and receive
  each segment's :class:`SegmentOutcome` back, so *static* schedules
  (SMARTS: :func:`periodic_plan`) and *dynamic* ones (PGSS: the next
  segment depends on the phase classifier's CI state) share one
  execution path;
* :class:`SessionDriver` — incremental plan execution: ``step()`` runs
  the plan to its next :data:`PAUSE` marker, which is how the multicore
  scheduler interleaves several cores' PGSS loops.

Techniques never call ``engine.run(Mode...)`` directly (simlint HYG005
enforces this structurally): all mode scheduling flows through
:meth:`SamplingSession.run_segment` (or, for windowed recorders,
:meth:`SamplingSession.run_windows`), so accounting, event emission,
and the batched fast-forward dispatch stay uniform across the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import MachineConfig
from ..cpu.engine import Mode, ModeAccounting, ModeRun, SimulationEngine
from ..events import (
    EstimateUpdated,
    EventBus,
    PhaseChange,
    SampleTaken,
    SegmentEnd,
    SegmentStart,
    SessionEvent,
    ThresholdSelected,
)
from ..program import Program

__all__ = [
    "EstimateUpdated",
    "EventBus",
    "ModeSegment",
    "PAUSE",
    "Pause",
    "PhaseChange",
    "SampleTaken",
    "SamplingSession",
    "SegmentEnd",
    "SegmentOutcome",
    "SegmentPlan",
    "SegmentRole",
    "SegmentStart",
    "SessionDriver",
    "SessionEvent",
    "SessionSample",
    "ThresholdSelected",
    "interval_sample_plan",
    "measure_intervals",
    "periodic_plan",
    "run_to_end_plan",
]


class SegmentRole:
    """Conventional ``ModeSegment.role`` labels (plain strings)."""

    FAST_FORWARD = "fast_forward"
    WARMUP = "warmup"
    SAMPLE = "sample"
    PROFILE = "profile"
    DRAIN = "drain"


@dataclass(frozen=True)
class ModeSegment:
    """One entry of a sampling plan.

    Attributes:
        mode: engine execution mode for the segment.
        ops: op budget (the engine stops early if the program ends).
        role: what the segment is *for* — a :class:`SegmentRole` label
            carried on the segment events.
        measure: record the segment's (ops, cycles) as a
            :class:`SessionSample` (and emit
            :class:`~repro.events.SampleTaken`) when both are non-zero.
    """

    mode: Mode
    ops: int
    role: str = "segment"
    measure: bool = False


@dataclass(frozen=True)
class SessionSample:
    """One measured detailed sample recorded by a session."""

    index: int
    op_offset: int
    ops: int
    cycles: int

    @property
    def ipc(self) -> float:
        """IPC over the sample."""
        return self.ops / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class SegmentOutcome:
    """What one executed segment did — sent back into the plan.

    Attributes:
        segment: the segment that ran.
        run: the engine's :class:`~repro.cpu.ModeRun` for it.
        start_offset: program-global op count before the segment.
        end_offset: program-global op count after it.
        sample: the recorded sample for measured segments (None when the
            segment was unmeasured or produced no ops/cycles).
    """

    segment: ModeSegment
    run: ModeRun
    start_offset: int
    end_offset: int
    sample: Optional[SessionSample]

    @property
    def exhausted(self) -> bool:
        """True when the program ended during the segment."""
        return self.run.exhausted


class Pause:
    """Plan marker: a step boundary for :meth:`SessionDriver.step`."""

    def __repr__(self) -> str:
        return "PAUSE"


#: The singleton step-boundary marker plans yield between iterations.
PAUSE = Pause()

#: A plan: yields segments (or PAUSE), receives each SegmentOutcome.
SegmentPlan = Generator[Union[ModeSegment, Pause], Any, None]


class SamplingSession:
    """Executes mode segments on one engine, recording samples and events.

    Args:
        engine: the simulation engine to drive.  The session is the only
            component that advances it (HYG005).
        bus: event bus to emit on; a private bus is created when omitted
            so emission is always valid.
    """

    def __init__(
        self, engine: SimulationEngine, bus: Optional[EventBus] = None
    ) -> None:
        self.engine = engine
        self.bus = bus if bus is not None else EventBus()
        #: Measured samples, in execution order.
        self.samples: List[SessionSample] = []

    @property
    def n_samples(self) -> int:
        """Number of measured samples recorded so far."""
        return len(self.samples)

    def run_segment(self, segment: ModeSegment) -> SegmentOutcome:
        """Execute one segment; record its sample; emit segment events."""
        start = self.engine.ops_completed
        self._emit_start(segment, start)
        return self._finish(segment, start, self.engine.run_segment(segment))

    def run_windows(
        self, segment: ModeSegment, count: int
    ) -> List[Tuple[SegmentOutcome, Optional[np.ndarray]]]:
        """Execute up to *count* back-to-back copies of *segment* in one
        engine pass (:meth:`~repro.cpu.SimulationEngine.run_windows`).

        Each window is recorded, and its events emitted, as if it had run
        through :meth:`run_segment`, followed by a raw drain of the
        signal tracker; the events come once the whole pass has run.
        Returns one ``(outcome, raw vector)`` pair per window; fewer than
        *count* when the program ends.
        """
        start = self.engine.ops_completed
        windows: List[Tuple[SegmentOutcome, Optional[np.ndarray]]] = []
        for run, vector in self.engine.run_windows(segment.mode, segment.ops, count):
            self._emit_start(segment, start)
            outcome = self._finish(segment, start, run)
            windows.append((outcome, vector))
            start = outcome.end_offset
        return windows

    def _emit_start(self, segment: ModeSegment, start: int) -> None:
        if not self.bus.wants(SegmentStart):
            return
        self.bus.emit(
            SegmentStart(
                mode=segment.mode,
                planned_ops=segment.ops,
                op_offset=start,
                role=segment.role,
            )
        )

    def _finish(self, segment: ModeSegment, start: int, run: ModeRun) -> SegmentOutcome:
        """Record the sample of a segment that ran from op offset *start*,
        and emit its end events."""
        sample: Optional[SessionSample] = None
        if segment.measure and run.ops and run.cycles:
            sample = SessionSample(
                index=len(self.samples),
                op_offset=start,
                ops=run.ops,
                cycles=run.cycles,
            )
            self.samples.append(sample)
        outcome = SegmentOutcome(
            segment=segment,
            run=run,
            start_offset=start,
            end_offset=start + run.ops,
            sample=sample,
        )
        if self.bus.wants(SegmentEnd):
            self.bus.emit(
                SegmentEnd(
                    mode=segment.mode,
                    ops=run.ops,
                    cycles=run.cycles,
                    op_offset=outcome.end_offset,
                    role=segment.role,
                    exhausted=run.exhausted,
                )
            )
        if sample is not None and self.bus.wants(SampleTaken):
            self.bus.emit(
                SampleTaken(
                    index=sample.index,
                    op_offset=sample.op_offset,
                    ops=sample.ops,
                    cycles=sample.cycles,
                )
            )
        return outcome

    def driver(self, plan: SegmentPlan) -> "SessionDriver":
        """Bind *plan* for incremental (stepwise) execution."""
        return SessionDriver(self, plan)

    def execute(self, plan: SegmentPlan) -> None:
        """Run *plan* to completion."""
        SessionDriver(self, plan).run()


class SessionDriver:
    """Incremental executor of one plan over one session.

    ``step()`` advances the plan to its next :data:`PAUSE` marker (or to
    completion), executing every segment it yields on the way.  Plans
    without pauses complete in a single step.
    """

    def __init__(self, session: SamplingSession, plan: SegmentPlan) -> None:
        self.session = session
        self._plan = plan
        self._outcome: Optional[SegmentOutcome] = None
        self._done = False

    @property
    def done(self) -> bool:
        """True once the plan has run to completion."""
        return self._done

    def step(self) -> bool:
        """Advance to the next pause point; False once the plan is done."""
        if self._done:
            return False
        while True:
            try:
                item = self._plan.send(self._outcome)
            except StopIteration:
                self._done = True
                return False
            if isinstance(item, Pause):
                self._outcome = None
                return True
            self._outcome = self.session.run_segment(item)

    def run(self) -> None:
        """Run the plan to completion."""
        while self.step():
            pass


def periodic_plan(
    ff_mode: Mode, ff_ops: int, warmup_ops: int, detail_ops: int
) -> SegmentPlan:
    """The static SMARTS-shaped schedule, repeated until the stream ends:

    fast-forward ``ff_ops`` in *ff_mode*, detail-warm ``warmup_ops``
    (skipped when 0), then measure a ``detail_ops`` detailed sample.
    The plan stops as soon as any segment exhausts the program.
    """
    while True:
        out = yield ModeSegment(ff_mode, ff_ops, role=SegmentRole.FAST_FORWARD)
        if out.exhausted:
            return
        if warmup_ops:
            out = yield ModeSegment(
                Mode.DETAIL_WARM, warmup_ops, role=SegmentRole.WARMUP
            )
            if out.exhausted:
                return
        out = yield ModeSegment(
            Mode.DETAIL, detail_ops, role=SegmentRole.SAMPLE, measure=True
        )
        if out.exhausted:
            return


#: Golden-ratio fraction driving the deterministic stagger sequence.
_STAGGER_STRIDE = 0.6180339887498949


def interval_sample_plan(
    targets: Sequence[int],
    interval_ops: int,
    warmup_ops: int,
    detail_ops: int,
    stagger: bool = True,
) -> SegmentPlan:
    """Measure one detailed sample inside each target interval.

    The program is viewed as consecutive ``interval_ops``-long intervals.
    The plan fast-forwards (with functional warming) to each target
    interval in ascending index order, takes a ``warmup_ops`` +
    ``detail_ops`` detailed sample inside it, drains the interval's
    remainder functionally warm, and stops when the program ends.
    Callers recover which interval a sample belongs to as
    ``sample.op_offset // interval_ops``: callers keep
    ``warmup_ops + detail_ops <= interval_ops``, so the sample never
    starts past its interval's boundary.  SimPoint-style callers pass
    ``warmup_ops=0, detail_ops=interval_ops`` and simulate each target
    interval whole.

    With ``stagger`` (the default) the sample's position inside its
    interval walks a deterministic golden-ratio sequence over the
    interval's slack (``interval_ops - warmup_ops - detail_ops``; with
    zero slack the stagger does nothing) instead of always sitting at
    the interval start.
    A fixed in-interval position aliases against intra-interval
    micro-structure — one position can systematically over- or
    under-state the interval mean — and a handful of interval samples
    (unlike SMARTS' dozens) never averages that bias away.  The sequence
    is seed-free, so runs stay reproducible.

    This is the shared measurement pass of the interval-selection
    techniques (SimPoint-style representatives, two-phase stratified
    stage 2, ranked-set selection).
    """
    interval = 0
    slack = interval_ops - warmup_ops - detail_ops
    for count, target in enumerate(sorted(set(targets))):
        while interval < target:
            out = yield ModeSegment(
                Mode.FUNC_WARM, interval_ops, role=SegmentRole.FAST_FORWARD
            )
            interval += 1
            if out.exhausted:
                return
        offset = 0
        if stagger and slack > 0:
            position = ((count + 1) * _STAGGER_STRIDE) % 1.0
            offset = int(slack * position)
        if offset:
            out = yield ModeSegment(
                Mode.FUNC_WARM, offset, role=SegmentRole.FAST_FORWARD
            )
            if out.exhausted:
                return
        if warmup_ops:
            out = yield ModeSegment(
                Mode.DETAIL_WARM, warmup_ops, role=SegmentRole.WARMUP
            )
            if out.exhausted:
                return
        out = yield ModeSegment(
            Mode.DETAIL, detail_ops, role=SegmentRole.SAMPLE, measure=True
        )
        if out.exhausted:
            return
        remainder = slack - offset
        interval += 1
        if remainder > 0:
            out = yield ModeSegment(
                Mode.FUNC_WARM, remainder, role=SegmentRole.FAST_FORWARD
            )
            if out.exhausted:
                return


def measure_intervals(
    program: Program,
    machine: MachineConfig,
    targets: Sequence[int],
    interval_ops: int,
    warmup_ops: int,
    detail_ops: int,
    bus: Optional[EventBus] = None,
) -> Tuple[Dict[int, Tuple[int, int]], ModeAccounting]:
    """Run :func:`interval_sample_plan` over *targets* on a fresh engine.

    Returns interval index -> measured ``(ops, cycles)`` (intervals the
    program ended before are absent) and the engine's accounting.
    """
    engine = SimulationEngine(program, machine=machine)
    session = SamplingSession(engine, bus=bus)
    session.execute(
        interval_sample_plan(targets, interval_ops, warmup_ops, detail_ops)
    )
    counts = {
        sample.op_offset // interval_ops: (sample.ops, sample.cycles)
        for sample in session.samples
    }
    return counts, engine.accounting


def run_to_end_plan(
    mode: Mode,
    chunk_ops: int = 1_000_000,
    measure: bool = False,
    role: str = SegmentRole.DRAIN,
) -> SegmentPlan:
    """Run the whole program in one mode, ``chunk_ops`` at a time."""
    while True:
        out = yield ModeSegment(mode, chunk_ops, role=role, measure=measure)
        if out.exhausted:
            return
