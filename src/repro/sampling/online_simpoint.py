"""Online SimPoint (Pereira et al., CODES+ISSS'05).

BBVs are tracked online at interval granularity and one *large* sample —
the first occurrence of each phase — is simulated in detail.  As in the
paper's evaluation, "a perfect phase predictor was simulated, that is, the
phase profile was known prior to the actual simulation": interval phase
labels are computed up front by running the online threshold classifier
over the interval BBV series, and the detail budget is charged as if every
first occurrence had been captured exactly.

The paper's criticism that this technique inherits shows up naturally:
the first interval assigned to a new phase is the transition interval
itself, "subject to warming effects and therefore not highly
representative of the phase".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cpu import ModeAccounting, OutcomeRecord
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..phase import OnlinePhaseClassifier
from ..program import Program
from ..stats.estimators import stratified_ratio_ipc
from .base import SamplingResult, SamplingTechnique, final_result, ops_label
from .full import ReferenceTrace
from .session import measure_intervals
from .simpoint import SimPoint, SimPointConfig

__all__ = ["OnlineSimPointConfig", "OnlineSimPoint"]


@dataclass(frozen=True)
class OnlineSimPointConfig:
    """Online-SimPoint parameters.

    Attributes:
        interval_ops: sample/interval size (paper sweeps with the SimPoint
            interval ladder; its best overall is 100M at threshold 0.1 pi).
        threshold_pi: phase-match threshold as a fraction of pi.
        hash_seed: reduced-BBV hash seed (must match the trace's).
    """

    interval_ops: int
    threshold_pi: float
    hash_seed: int = 12345

    def __post_init__(self) -> None:
        if self.interval_ops <= 0:
            raise ConfigurationError("interval_ops must be positive")
        if not 0.0 < self.threshold_pi <= 1.0:
            raise ConfigurationError("threshold_pi must be in (0, 1]")

    @property
    def label(self) -> str:
        """Short config label, e.g. ``"80k/.10"``."""
        return (
            f"{ops_label(self.interval_ops)}"
            f"/.{int(round(self.threshold_pi * 100)):02d}"
        )


class OnlineSimPoint(SamplingTechnique):
    """One large detailed sample per online-detected phase."""

    name = "OnlineSimPoint"
    uses_trace = True
    config: OnlineSimPointConfig

    def run(
        self,
        program: Program,
        trace: Optional[ReferenceTrace] = None,
        bus: Optional[EventBus] = None,
        **kwargs: Any,
    ) -> SamplingResult:
        """Classify intervals online; detail the first interval per phase.

        Args:
            program: the workload.
            trace: pre-collected reference trace supplying interval BBVs
                and IPCs; when omitted a live profiling pass collects the
                BBVs and the intervals' IPCs are measured with a live
                second pass (:func:`~repro.sampling.session.measure_intervals`).
            bus: optional event bus; receives :class:`PhaseChange` events
                from the classifier and the final estimate.
        """
        cfg = self.config
        if trace is None:
            profiler = SimPoint(
                SimPointConfig(cfg.interval_ops, 1, hash_seed=cfg.hash_seed),
                machine=self.machine,
            )
            intervals = profiler.profile_intervals(program, bus=bus)
            have_ipc = False
        else:
            intervals = trace.to_period(cfg.interval_ops)
            have_ipc = True
        n = intervals.n_windows
        if n < 2:
            raise SamplingError("need at least 2 intervals")

        classifier = OnlinePhaseClassifier(cfg.threshold_pi * math.pi, bus=bus)
        points = intervals.normalized_bbvs()
        labels: List[int] = []
        for i in range(n):
            decision = classifier.observe(points[i], int(intervals.ops[i]))
            labels.append(decision.phase_id)

        # First occurrence of each phase is its (only) simulation point.
        first_of_phase: Dict[int, int] = {}
        for i, phase in enumerate(labels):
            if phase not in first_of_phase:
                first_of_phase[phase] = i

        accounting = ModeAccounting()
        rep_counts: Dict[int, Tuple[int, int]]
        if have_ipc:
            rep_counts = {
                p: (int(intervals.ops[i]), int(intervals.cycles[i]))
                for p, i in first_of_phase.items()
            }
        else:
            record = OutcomeRecord(program, self.machine)
            measured, measure_accounting = measure_intervals(
                record,
                list(first_of_phase.values()),
                cfg.interval_ops,
                warmup_ops=0,
                detail_ops=cfg.interval_ops,
                bus=bus,
            )
            accounting.merge(record.engine.accounting)
            accounting.merge(measure_accounting)
            rep_counts = {
                p: measured[i]
                for p, i in first_of_phase.items()
                if i in measured
            }

        label_arr = np.array(labels)
        ops_per_phase = {
            p: int(intervals.ops[label_arr == p].sum()) for p in first_of_phase
        }
        samples_per_phase = {p: [counts] for p, counts in rep_counts.items()}
        estimate = stratified_ratio_ipc(ops_per_phase, samples_per_phase)

        detailed_ops = len(rep_counts) * cfg.interval_ops
        return final_result(
            self.name,
            program.name,
            estimate.ipc,
            len(rep_counts),
            accounting,
            bus,
            detailed_ops=detailed_ops,
            total_ops=intervals.total_ops + detailed_ops,
            extras={
                "config": cfg.label,
                "n_phases": classifier.n_phases,
                "n_intervals": n,
            },
        )
