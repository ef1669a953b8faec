"""Two-phase stratified sampling (Ekman & Stenström, NVIDIA).

The recipe from "CPU Simulation Using Two-Phase Stratified Sampling":

1. **Stage 1 — cheap strata.**  A FUNC_FAST profiling pass (op counting
   plus the always-on phase-signal hardware, reduced BBV by default)
   assigns every fixed-length interval an online phase id.  The phases are the strata; no cycle-
   accurate work is spent yet.
2. **Pilot probe.**  A small fixed number of detailed samples per
   stratum (``pilot_per_stratum``) estimates each stratum's IPC standard
   deviation — the quantity Neyman allocation needs.
3. **Stage 2 — Neyman allocation.**  The remaining detailed budget is
   split ``n_h proportional to N_h * S_h``
   (:func:`repro.stats.sampling_theory.neyman_allocation`), additional
   intervals are selected evenly inside each stratum, and a second
   measurement pass takes the samples.

The estimate is the per-stratum stratified *ratio* estimator
(:func:`repro.stats.stratified_ratio_ipc`) over the stage-1 ops
attribution, with a stratified-mean confidence interval
(:func:`repro.stats.sampling_theory.stratified_mean_ci`).

All three passes are sampling-session plans: the profile pass mirrors
SimPoint's, and both measurement passes are the kernel's shared
:func:`~repro.sampling.session.interval_sample_plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ScaleConfig
from ..cpu import Mode, ModeAccounting, SimulationEngine
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..phase import OnlinePhaseClassifier
from ..program import Program
from ..signals import PHASE_SIGNALS, make_signal_tracker
from ..stats.ci import ConfidenceInterval
from ..stats.estimators import stratified_ratio_ipc
from ..stats.sampling_theory import neyman_allocation, stratified_mean_ci
from .base import SamplingResult, SamplingTechnique, final_result, ops_label
from .session import (
    ModeSegment,
    SamplingSession,
    SegmentPlan,
    SegmentRole,
    measure_intervals,
)

__all__ = ["TwoPhaseStratifiedConfig", "TwoPhaseStratified"]


@dataclass(frozen=True)
class TwoPhaseStratifiedConfig:
    """Two-phase stratified sampling parameters.

    Attributes:
        interval_ops: stratification interval length (one BBV per
            interval; also the unit stage 2 selects).
        total_samples: total detailed-sample budget, pilots included.
        threshold_pi: BBV angle threshold (fraction of pi) of the online
            phase classifier producing the strata.
        pilot_per_stratum: pilot samples per stratum for the variance
            probe (capped at the stratum's occurrence count).
        detail_ops: measured detailed-sample length.
        warmup_ops: detailed warming before each sample.
        confidence: confidence level of the reported interval.
        metric: phase-distance metric (``"angle"`` or ``"manhattan"``).
        hash_seed: seed of the reduced-BBV hash bit choice.
        phase_signal: phase-signal family producing the strata
            (``"bbv"``, ``"mav"``, or ``"concat"``).
        mav_buckets: MAV register-file width per granularity (only used
            when the signal includes a MAV).
    """

    interval_ops: int
    total_samples: int
    threshold_pi: float = 0.05
    pilot_per_stratum: int = 2
    detail_ops: int = 1_000
    warmup_ops: int = 3_000
    confidence: float = 0.997
    metric: str = "angle"
    hash_seed: int = 12345
    phase_signal: str = "bbv"
    mav_buckets: int = 32

    def __post_init__(self) -> None:
        if self.phase_signal not in PHASE_SIGNALS:
            raise ConfigurationError(
                f"phase_signal must be one of {PHASE_SIGNALS}, "
                f"got {self.phase_signal!r}"
            )
        if self.interval_ops <= self.detail_ops + self.warmup_ops:
            raise ConfigurationError(
                "interval_ops must exceed warmup_ops + detail_ops"
            )
        if not 0.0 < self.threshold_pi <= 1.0:
            raise ConfigurationError("threshold_pi must be in (0, 1]")
        if self.total_samples < 1:
            raise ConfigurationError("total_samples must be at least 1")
        if self.pilot_per_stratum < 1:
            raise ConfigurationError("pilot_per_stratum must be at least 1")

    @classmethod
    def from_scale(
        cls, scale: ScaleConfig, **overrides: Any
    ) -> "TwoPhaseStratifiedConfig":
        """The scale's canonical two-phase stratified configuration."""
        budget = scale.sample_budget
        params: Dict[str, Any] = dict(
            interval_ops=scale.pgss_best_period,
            total_samples=budget.stage2_samples,
            pilot_per_stratum=budget.pilot_per_stratum,
            detail_ops=budget.detail_ops,
            warmup_ops=budget.warmup_ops,
            confidence=budget.confidence,
        )
        params.update(overrides)
        return cls(**params)

    @property
    def label(self) -> str:
        """Short config label, e.g. ``"8kx2p16"``."""
        label = (
            f"{ops_label(self.interval_ops)}x"
            f"{self.pilot_per_stratum}p{self.total_samples}"
        )
        if self.phase_signal != "bbv":
            label += f"/{self.phase_signal}"
        return label


def _spread(items: List[int], count: int) -> List[int]:
    """*count* evenly spaced picks from *items* (deterministic, sorted)."""
    if count >= len(items):
        return list(items)
    return [items[(j * len(items)) // count] for j in range(count)]


def _cap_and_redistribute(
    allocation: List[int], capacity: List[int]
) -> List[int]:
    """Cap each allocation at its capacity; re-spend the surplus.

    Surplus budget freed by capped strata is handed out one sample at a
    time, round-robin in stratum order, to strata with headroom — the
    deterministic without-replacement completion of Neyman allocation.
    """
    capped = [min(a, c) for a, c in zip(allocation, capacity)]
    surplus = sum(allocation) - sum(capped)
    while surplus > 0:
        progressed = False
        for index in range(len(capped)):
            if surplus == 0:
                break
            if capped[index] < capacity[index]:
                capped[index] += 1
                surplus -= 1
                progressed = True
        if not progressed:
            break  # every stratum exhausted: budget exceeds the universe
    return capped


class TwoPhaseStratified(SamplingTechnique):
    """Stage-1 phase profile, stage-2 Neyman-allocated detailed samples."""

    name = "Stratified"
    config: TwoPhaseStratifiedConfig

    def _profile(
        self, program: Program, bus: Optional[EventBus]
    ) -> Tuple[List[int], List[int], SimulationEngine]:
        """Stage 1: per-interval phase ids and op counts (FUNC_FAST)."""
        cfg = self.config
        tracker = make_signal_tracker(
            cfg.phase_signal,
            hash_seed=cfg.hash_seed,
            mav_buckets=cfg.mav_buckets,
        )
        engine = SimulationEngine(
            program, machine=self.machine, signal_tracker=tracker
        )
        session = SamplingSession(engine, bus=bus)
        classifier = OnlinePhaseClassifier(
            cfg.threshold_pi * math.pi, metric=cfg.metric, bus=session.bus
        )
        phase_ids: List[int] = []
        ops_list: List[int] = []

        def plan() -> SegmentPlan:
            while not engine.exhausted:
                outcome = yield ModeSegment(
                    Mode.FUNC_FAST, cfg.interval_ops, role=SegmentRole.PROFILE
                )
                if outcome.run.ops == 0:
                    break
                vector = tracker.take_vector(normalize=True)
                decision = classifier.observe(vector, outcome.run.ops)
                phase_ids.append(decision.phase_id)
                ops_list.append(outcome.run.ops)

        session.execute(plan())
        return phase_ids, ops_list, engine

    def _measure(
        self, program: Program, targets: List[int], bus: Optional[EventBus]
    ) -> Tuple[Dict[int, Tuple[int, int]], ModeAccounting]:
        """One measurement pass: interval index -> measured (ops, cycles)."""
        cfg = self.config
        return measure_intervals(
            program,
            self.machine,
            targets,
            cfg.interval_ops,
            cfg.warmup_ops,
            cfg.detail_ops,
            bus,
        )

    def run(
        self, program: Program, bus: Optional[EventBus] = None, **kwargs: Any
    ) -> SamplingResult:
        """Profile, probe, allocate, measure, estimate."""
        cfg = self.config
        phase_ids, interval_ops, profile_engine = self._profile(program, bus)
        if not phase_ids:
            raise SamplingError(
                f"{program.name} produced no {cfg.interval_ops}-op intervals"
            )
        occurrences: Dict[int, List[int]] = {}
        for index, phase_id in enumerate(phase_ids):
            occurrences.setdefault(phase_id, []).append(index)
        strata = sorted(occurrences)

        # Pilot probe: a few evenly spaced samples inside each stratum.
        pilot_targets = {
            pid: _spread(occurrences[pid], cfg.pilot_per_stratum)
            for pid in strata
        }
        all_pilots = sorted(
            index for picks in pilot_targets.values() for index in picks
        )
        pilot_counts, pilot_accounting = self._measure(program, all_pilots, bus)

        sizes = [len(occurrences[pid]) for pid in strata]
        stds: List[float] = []
        for pid in strata:
            ipcs = [
                pilot_counts[index][0] / pilot_counts[index][1]
                for index in pilot_targets[pid]
                if index in pilot_counts
            ]
            stds.append(
                float(np.std(ipcs, ddof=1)) if len(ipcs) >= 2 else 0.0
            )

        # Stage 2: Neyman-allocate the full budget, discount the pilots
        # already taken, cap at each stratum's unsampled intervals.
        budget = max(cfg.total_samples, len(strata))
        allocation = neyman_allocation(sizes, stds, budget)
        extra_wanted = [
            max(allocation[pos] - len(pilot_targets[pid]), 0)
            for pos, pid in enumerate(strata)
        ]
        unsampled = {
            pid: [i for i in occurrences[pid] if i not in set(pilot_targets[pid])]
            for pid in strata
        }
        extra = _cap_and_redistribute(
            extra_wanted, [len(unsampled[pid]) for pid in strata]
        )
        stage2_targets = sorted(
            index
            for pos, pid in enumerate(strata)
            for index in _spread(unsampled[pid], extra[pos])
        )
        stage2_counts: Dict[int, Tuple[int, int]] = {}
        stage2_accounting = ModeAccounting()
        if stage2_targets:
            stage2_counts, stage2_accounting = self._measure(
                program, stage2_targets, bus
            )

        # Per-stratum estimator inputs from the stage-1 attribution.
        measured = dict(pilot_counts)
        measured.update(stage2_counts)
        ops_per_stratum = {
            pid: sum(interval_ops[i] for i in occurrences[pid])
            for pid in strata
        }
        samples_per_stratum: Dict[int, List[Tuple[int, int]]] = {
            pid: [
                measured[i] for i in occurrences[pid] if i in measured
            ]
            for pid in strata
        }
        estimate = stratified_ratio_ipc(ops_per_stratum, samples_per_stratum)
        # The CI is built in CPI space, where the stratified mean matches
        # the ratio estimator (per-sample ops are a constant detail_ops),
        # then delta-converted: IPC = 1/CPI, d(IPC) = d(CPI)/CPI^2.
        cpi_ci = stratified_mean_ci(
            ops_per_stratum,
            {
                pid: [cycles / ops for ops, cycles in pairs]
                for pid, pairs in samples_per_stratum.items()
            },
            cfg.confidence,
        )
        ci = ConfidenceInterval(
            mean=1.0 / cpi_ci.mean,
            half_width=cpi_ci.half_width / cpi_ci.mean**2,
            confidence=cpi_ci.confidence,
            n=cpi_ci.n,
        )

        accounting = ModeAccounting()
        accounting.merge(profile_engine.accounting)
        accounting.merge(pilot_accounting)
        accounting.merge(stage2_accounting)
        return final_result(
            self.name,
            program.name,
            estimate.ipc,
            len(measured),
            accounting,
            bus,
            ci=ci,
            extras={
                "config": cfg.label,
                "n_intervals": len(phase_ids),
                "n_strata": len(strata),
                "stratum_sizes": {pid: len(occurrences[pid]) for pid in strata},
                "allocation": {
                    pid: allocation[pos] for pos, pid in enumerate(strata)
                },
                "samples_per_stratum": {
                    pid: len(samples_per_stratum[pid]) for pid in strata
                },
                "uncovered_weight": estimate.uncovered_weight,
            },
        )
