"""Section-4 threshold analysis: the computations behind Figures 6-10.

The analysis operates on paired consecutive-period changes: for every pair
of adjacent sampling periods, the BBV change (angle, radians) and the IPC
change measured in units of the benchmark's own IPC standard deviation —
"all IPC changes are compared to the standard deviation of all samples
across the benchmark" so benchmarks can be compared on one axis.

Figure 6 splits the (BBV change, IPC change) plane into four regions:

* Region 1 — undetected change in IPC (miss),
* Region 2 — detected change in IPC (hit),
* Region 3 — no IPC change, not detected (true negative),
* Region 4 — false phase change detected (false positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..signals.vector import angle_between
from ..errors import SamplingError
from .classifier import OnlinePhaseClassifier

__all__ = [
    "ChangePair",
    "consecutive_changes",
    "region_counts",
    "detection_rate",
    "false_positive_rate",
    "PhaseStatistics",
    "phase_statistics",
]


@dataclass(frozen=True)
class ChangePair:
    """One consecutive-period change observation.

    Attributes:
        bbv_angle: angle between the two periods' BBVs, radians.
        ipc_sigma: absolute IPC change in units of the benchmark's IPC
            standard deviation.
    """

    bbv_angle: float
    ipc_sigma: float


def consecutive_changes(
    bbvs: Sequence[np.ndarray], ipcs: Sequence[float]
) -> List[ChangePair]:
    """Build the change pairs from per-period BBV and IPC series.

    IPC changes are normalised by the standard deviation of the *whole*
    series (the paper's cross-benchmark normalisation).
    """
    if len(bbvs) != len(ipcs):
        raise SamplingError("bbvs and ipcs must be the same length")
    if len(bbvs) < 2:
        return []
    arr = np.asarray(ipcs, dtype=np.float64)
    sigma = float(arr.std(ddof=0))
    if sigma == 0.0:
        sigma = 1.0  # constant-IPC series: every change is 0 sigma anyway
    pairs = []
    for i in range(1, len(bbvs)):
        angle = angle_between(bbvs[i - 1], bbvs[i])
        dipc = abs(float(arr[i] - arr[i - 1])) / sigma
        pairs.append(ChangePair(bbv_angle=angle, ipc_sigma=dipc))
    return pairs


def region_counts(
    pairs: Sequence[ChangePair],
    bbv_threshold: float,
    ipc_threshold_sigma: float,
) -> Dict[int, int]:
    """Figure 6 region occupancy for one (BBV, IPC) threshold pair.

    Returns ``{1: misses, 2: hits, 3: true negatives, 4: false positives}``.
    """
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for pair in pairs:
        significant = pair.ipc_sigma >= ipc_threshold_sigma
        detected = pair.bbv_angle >= bbv_threshold
        if significant and detected:
            counts[2] += 1
        elif significant:
            counts[1] += 1
        elif detected:
            counts[4] += 1
        else:
            counts[3] += 1
    return counts


def detection_rate(
    pairs: Sequence[ChangePair],
    bbv_threshold: float,
    ipc_threshold_sigma: float,
) -> float:
    """Fraction of significant IPC changes caught: R2 / (R1 + R2) (Fig. 8).

    Returns 1.0 when there are no significant changes at all.
    """
    counts = region_counts(pairs, bbv_threshold, ipc_threshold_sigma)
    significant = counts[1] + counts[2]
    if significant == 0:
        return 1.0
    return counts[2] / significant


def false_positive_rate(
    pairs: Sequence[ChangePair],
    bbv_threshold: float,
    ipc_threshold_sigma: float,
) -> float:
    """Fraction of detections that were spurious: R4 / (R2 + R4) (Fig. 9).

    Returns 0.0 when nothing was detected.
    """
    counts = region_counts(pairs, bbv_threshold, ipc_threshold_sigma)
    detected = counts[2] + counts[4]
    if detected == 0:
        return 0.0
    return counts[4] / detected


@dataclass(frozen=True)
class PhaseStatistics:
    """Figure 10 statistics for one threshold value.

    Attributes:
        threshold: the BBV angle threshold (radians).
        n_phases: distinct phases detected.
        n_changes: phase transitions observed.
        mean_interval_ops: average contiguous same-phase run length (ops).
        ipc_variation: mean within-phase IPC standard deviation in units
            of the benchmark's overall IPC standard deviation.
    """

    threshold: float
    n_phases: int
    n_changes: int
    mean_interval_ops: float
    ipc_variation: float


def phase_statistics(
    bbvs: Sequence[np.ndarray],
    ipcs: Sequence[float],
    ops_per_period: Sequence[int],
    threshold: float,
    metric: str = "angle",
) -> PhaseStatistics:
    """Run the online classifier over a trace and report Fig.-10 statistics.

    Args:
        bbvs: per-period normalised BBVs.
        ipcs: per-period IPC.
        ops_per_period: per-period op counts.
        threshold: classifier threshold (radians for the angle metric).
        metric: classifier distance metric.
    """
    if not (len(bbvs) == len(ipcs) == len(ops_per_period)):
        raise SamplingError("series must have equal lengths")
    if not bbvs:
        raise SamplingError("empty trace")

    classifier = OnlinePhaseClassifier(threshold, metric=metric)
    assignments: List[int] = []
    for bbv, ops in zip(bbvs, ops_per_period):
        decision = classifier.observe(np.asarray(bbv, dtype=np.float64), int(ops))
        assignments.append(decision.phase_id)

    # Contiguous same-phase interval lengths in ops.
    intervals: List[int] = []
    run_ops = 0
    for i, phase in enumerate(assignments):
        run_ops += int(ops_per_period[i])
        last = i + 1 == len(assignments)
        if last or assignments[i + 1] != phase:
            intervals.append(run_ops)
            run_ops = 0

    ipc_arr = np.asarray(ipcs, dtype=np.float64)
    overall_sigma = float(ipc_arr.std(ddof=0))
    per_phase: Dict[int, List[float]] = {}
    for phase, ipc in zip(assignments, ipc_arr):
        per_phase.setdefault(phase, []).append(float(ipc))
    stds = [
        float(np.std(vals, ddof=0)) for vals in per_phase.values() if len(vals) > 1
    ]
    if stds and overall_sigma > 0:
        variation = float(np.mean(stds)) / overall_sigma
    else:
        variation = 0.0

    return PhaseStatistics(
        threshold=threshold,
        n_phases=classifier.n_phases,
        n_changes=classifier.n_changes,
        mean_interval_ops=float(np.mean(intervals)) if intervals else 0.0,
        ipc_variation=variation,
    )
