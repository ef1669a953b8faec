"""Online phase detection (paper Sections 3 and 4).

:class:`OnlinePhaseClassifier` implements the Figure 4/5 algorithm: at each
BBV sampling-period boundary the new normalised vector is compared first
against the previous period's vector (the cheap common case) and then
against every known phase's representative; an angle below the threshold
means "same phase", otherwise a new phase is created.

:mod:`repro.phase.threshold` holds the Section-4 threshold analysis — the
Figure 6 region taxonomy and the computations behind Figures 7-10 — and
:mod:`repro.phase.adaptive` implements the paper's future-work idea of
adapting the threshold to each benchmark automatically.
"""

from .profile import PhaseProfile
from .classifier import OnlinePhaseClassifier, PhaseDecision
from .threshold import (
    ChangePair,
    consecutive_changes,
    region_counts,
    detection_rate,
    false_positive_rate,
    phase_statistics,
    PhaseStatistics,
)
from .adaptive import AdaptiveThresholdSelector

__all__ = [
    "PhaseProfile",
    "OnlinePhaseClassifier",
    "PhaseDecision",
    "ChangePair",
    "consecutive_changes",
    "region_counts",
    "detection_rate",
    "false_positive_rate",
    "phase_statistics",
    "PhaseStatistics",
    "AdaptiveThresholdSelector",
]
