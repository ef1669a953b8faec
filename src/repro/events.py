"""Typed event bus for sampling sessions and phase tracking.

The sampling-session kernel (:mod:`repro.sampling.session`) and the
phase trackers emit typed events on a lightweight synchronous observer
bus — one :class:`EventBus` per session — so the experiment harness and
the CLI can watch a run (progress bars, diagnostics, figure extras)
without reaching into technique internals.

The event types form a small closed taxonomy (DESIGN.md §13):

* :class:`SegmentStart` / :class:`SegmentEnd` — one engine mode segment;
* :class:`SampleTaken` — a measured detailed sample was recorded;
* :class:`PhaseChange` — the online classifier switched phases;
* :class:`EstimateUpdated` — a technique's running or final estimate;
* :class:`ThresholdSelected` — the adaptive selector chose a threshold.

The bus lives in its own top-level module (rather than inside
``repro.sampling``) so :mod:`repro.phase` can emit events without an
import cycle; :mod:`repro.sampling.session` re-exports everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

from .cpu.engine import Mode

__all__ = [
    "EstimateUpdated",
    "EventBus",
    "PhaseChange",
    "SampleTaken",
    "SegmentEnd",
    "SegmentStart",
    "SessionEvent",
    "ThresholdSelected",
]


@dataclass(frozen=True)
class SessionEvent:
    """Base class of every bus event (subscribe to it to see them all)."""


@dataclass(frozen=True)
class SegmentStart(SessionEvent):
    """A plan segment is about to execute (for the windows of
    ``SamplingSession.run_windows``, emitted once their pass has run).

    Attributes:
        mode: engine mode of the segment.
        planned_ops: the segment's op budget.
        op_offset: program-global op count at segment start.
        role: the plan's label for the segment (``"fast_forward"``,
            ``"warmup"``, ``"sample"``, ``"profile"``, ...).
    """

    mode: Mode
    planned_ops: int
    op_offset: int
    role: str


@dataclass(frozen=True)
class SegmentEnd(SessionEvent):
    """A plan segment finished executing.

    Attributes:
        mode: engine mode of the segment.
        ops: operations actually consumed (0 if the stream was done).
        cycles: cycles elapsed (0 for functional modes).
        op_offset: program-global op count after the segment.
        role: the plan's label for the segment.
        exhausted: True when the program ended during the segment.
    """

    mode: Mode
    ops: int
    cycles: int
    op_offset: int
    role: str
    exhausted: bool


@dataclass(frozen=True)
class SampleTaken(SessionEvent):
    """A measured segment produced a detailed sample.

    Attributes:
        index: 0-based sample index within the session.
        op_offset: program-global op count at which the sample started.
        ops: operations measured.
        cycles: cycles measured.
    """

    index: int
    op_offset: int
    ops: int
    cycles: int

    @property
    def ipc(self) -> float:
        """IPC over the sample."""
        return self.ops / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class PhaseChange(SessionEvent):
    """The online phase classifier changed (or created) the phase.

    Attributes:
        phase_id: the phase now current.
        previous_phase_id: the phase before this observation (None for
            the very first period).
        created: True when ``phase_id`` is brand new.
        distance: distance of the period's BBV to the previous period's
            (radians for the angle metric).
        n_observations: periods classified so far, this one included.
    """

    phase_id: int
    previous_phase_id: Optional[int]
    created: bool
    distance: float
    n_observations: int


@dataclass(frozen=True)
class EstimateUpdated(SessionEvent):
    """A technique refreshed its IPC estimate.

    Attributes:
        technique: technique name.
        ipc: the current estimate.
        n_samples: detailed samples consumed so far.
        final: True for the estimate a :class:`SamplingResult` reports.
    """

    technique: str
    ipc: float
    n_samples: int
    final: bool


@dataclass(frozen=True)
class ThresholdSelected(SessionEvent):
    """The adaptive selector settled on a classifier threshold.

    Attributes:
        threshold: the chosen value, as a fraction of pi.
        n_phases: phases the winning candidate found on the prefix.
        change_rate: the winning candidate's per-period change rate.
        usable: whether the choice satisfied the usability gates (False
            means it was the best-scoring fallback).
    """

    threshold: float
    n_phases: int
    change_rate: float
    usable: bool


#: An event handler; return value is ignored.
EventHandler = Callable[[SessionEvent], None]


class EventBus:
    """Synchronous observer bus with subtype dispatch.

    Handlers subscribe to an event *class* and receive every emitted
    instance of that class or its subclasses, in registration order —
    subscribing to :class:`SessionEvent` observes everything.  Emission
    is synchronous and exception-transparent: handlers run inline on
    the simulating thread and must not mutate simulation state.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type[SessionEvent], List[EventHandler]] = {}

    def subscribe(
        self, event_type: Type[SessionEvent], handler: EventHandler
    ) -> EventHandler:
        """Register *handler* for *event_type*; returns the handler."""
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def wants(self, event_type: Type[SessionEvent]) -> bool:
        """True when a handler is subscribed to *event_type* or one of
        its supertypes, i.e. when emitting one would reach somebody.
        Emitters check it to build no event that nobody hears."""
        for klass in event_type.__mro__:
            if self._handlers.get(klass):
                return True
            if klass is SessionEvent:
                break
        return False

    def emit(self, event: SessionEvent) -> None:
        """Deliver *event* to every handler of its type or supertypes."""
        for klass in type(event).__mro__:
            handlers = self._handlers.get(klass)
            if handlers:
                for handler in list(handlers):
                    handler(event)
            if klass is SessionEvent:
                break
