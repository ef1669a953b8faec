"""Sampled-simulation techniques.

All five techniques the paper evaluates (Section 5), plus the full-detail
reference, behind one interface:

* :class:`FullDetail` — whole-program cycle-accurate run (ground truth);
* :class:`Smarts` — periodic small samples (Wunderlich et al., ISCA'03);
* :class:`TurboSmarts` — random-order samples to a confidence target
  (Wenisch et al., ISPASS'06);
* :class:`SimPoint` — offline BBV clustering, one large representative
  interval per cluster (Sherwood et al., ASPLOS'02; SimPoint 3.0 tooling);
* :class:`OnlineSimPoint` — online phase tracking with one large sample
  per phase and a perfect phase predictor (Pereira et al., CODES+ISSS'05);
* :class:`Pgss` — the paper's Phase-Guided Small-Sample Simulation;
* :class:`TwoPhaseStratified` — stage-1 phase profile, stage-2
  Neyman-allocated detailed budget (Ekman & Stenström-style two-phase
  stratified sampling);
* :class:`RankedSetSampling` — rank each cycle of intervals by a cheap
  functional-warming cost proxy, measure one rank per cycle (McIntyre's
  ranked-set estimator).

Each returns a :class:`SamplingResult` carrying the IPC estimate and the
detailed-op cost, the two axes of the paper's Figure 12.

All of them execute through the shared sampling-session kernel
(:mod:`repro.sampling.session`, DESIGN.md §13): a technique is a *plan*
of :class:`ModeSegment`\\ s run by a :class:`SamplingSession`, which
records measured samples and emits typed events on an
:class:`~repro.events.EventBus`.
"""

from .base import SamplingResult, SamplingTechnique
from .session import (
    PAUSE,
    ModeSegment,
    SamplingSession,
    SegmentOutcome,
    SegmentPlan,
    SegmentRole,
    SessionDriver,
    SessionSample,
    interval_sample_plan,
    periodic_plan,
    run_to_end_plan,
)
from .full import FullDetail, ReferenceTrace, collect_reference_trace
from .smarts import Smarts, SmartsConfig
from .turbosmarts import TurboSmarts, TurboSmartsConfig
from .simpoint import SimPoint, SimPointConfig
from .online_simpoint import OnlineSimPoint, OnlineSimPointConfig
from .pgss import Pgss, PgssConfig, PgssController
from .stratified import TwoPhaseStratified, TwoPhaseStratifiedConfig
from .ranked import RankedSetSampling, RankedSetConfig

__all__ = [
    "SamplingResult",
    "SamplingTechnique",
    "ModeSegment",
    "PAUSE",
    "SamplingSession",
    "SegmentOutcome",
    "SegmentPlan",
    "SegmentRole",
    "SessionDriver",
    "SessionSample",
    "interval_sample_plan",
    "periodic_plan",
    "run_to_end_plan",
    "FullDetail",
    "ReferenceTrace",
    "collect_reference_trace",
    "Smarts",
    "SmartsConfig",
    "TurboSmarts",
    "TurboSmartsConfig",
    "SimPoint",
    "SimPointConfig",
    "OnlineSimPoint",
    "OnlineSimPointConfig",
    "Pgss",
    "PgssConfig",
    "PgssController",
    "TwoPhaseStratified",
    "TwoPhaseStratifiedConfig",
    "RankedSetSampling",
    "RankedSetConfig",
]
