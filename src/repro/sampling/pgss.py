"""PGSS-Sim: Phase-Guided Small-Sample Simulation (the paper's technique).

The Figure 5 flow, implemented literally:

1. start with one detailed warm-up + detailed sample (SMARTS-style);
2. fast-forward one BBV sampling period with functional warming while the
   Figure 4 hardware accumulates the reduced BBV;
3. classify the period's vector (same phase as last period / some known
   phase / brand new phase);
4. if the current phase's sample population is *not* inside confidence
   bounds and the last sample in this phase is at least the spread
   distance behind, take another warm-up + sample and credit it to the
   phase;
5. repeat until the program completes.

The loop is a *dynamic* sampling plan: a generator over
:class:`~repro.sampling.session.ModeSegment`\\ s whose next segment
depends on the classifier's CI state, with a :data:`PAUSE` marker at the
bottom of each Fig. 5 iteration.  :class:`PgssController` binds that plan
to a :class:`~repro.sampling.session.SessionDriver`, so ``Pgss.run`` and
the multicore scheduler's per-core ``step()`` interleaving are literally
the same code path.

The estimate is the ops-weighted sum of per-phase mean sample IPCs —
"PGSS-Sim automatically takes more samples in phases which occur a great
deal or have a high amount of variance in performance and fewer samples in
phases which are rarer or more stable."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional, Tuple

from ..config import ScaleConfig
from ..cpu import Mode, OutcomeRecord, SimulationEngine
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..phase import OnlinePhaseClassifier, PhaseProfile
from ..program import Program
from ..signals import PHASE_SIGNALS, SignalTracker, make_signal_tracker
from ..stats.estimators import stratified_ratio_ipc
from .base import SamplingResult, SamplingTechnique, final_result, ops_label
from .session import (
    PAUSE,
    ModeSegment,
    SamplingSession,
    SegmentPlan,
    SegmentRole,
    SessionDriver,
)

__all__ = ["PgssConfig", "Pgss", "PgssController"]


@dataclass(frozen=True)
class PgssConfig:
    """PGSS-Sim parameters.

    Attributes:
        bbv_period_ops: fast-forward / BBV sampling period (the paper
            sweeps 100k/1M/10M; its best overall is 1M).
        threshold_pi: BBV angle threshold as a fraction of pi (paper best:
            0.05).
        detail_ops: measured sample length (paper: 1000).
        warmup_ops: detailed warming before each sample (paper: ~3000).
        spread_ops: minimum ops between samples within one phase (the
            Fig. 5 "1M ops since last sample in phase?" diamond).
        rel_error: per-phase CI half-width target.
        confidence: per-phase CI confidence level.
        min_samples: samples a phase needs before its CI is trusted.
        metric: phase-distance metric (``"angle"`` or ``"manhattan"``).
        wide_bbv_buckets: when set, use a wide modulo hash of this many
            buckets instead of the paper's 5-bit reduced hash (ablation).
        use_spread_rule: disable to always sample when out of bounds
            (ablation of the temporal-spreading heuristic).
        fixed_samples_per_phase: when set, ignore confidence bounds and
            take exactly this many samples per phase (ablation).
        hash_seed: seed of the 5-bit hash bit choice.
        phase_signal: phase-signal family driving classification:
            ``"bbv"`` (paper default), ``"mav"`` (memory-access vector),
            or ``"concat"`` (BBV + MAV concatenated).
        mav_buckets: MAV register-file width per granularity (only used
            when the signal includes a MAV).
    """

    bbv_period_ops: int
    threshold_pi: float
    detail_ops: int = 1_000
    warmup_ops: int = 3_000
    spread_ops: int = 1_000_000
    rel_error: float = 0.03
    confidence: float = 0.997
    min_samples: int = 3
    metric: str = "angle"
    wide_bbv_buckets: Optional[int] = None
    use_spread_rule: bool = True
    fixed_samples_per_phase: Optional[int] = None
    hash_seed: int = 12345
    phase_signal: str = "bbv"
    mav_buckets: int = 32

    def __post_init__(self) -> None:
        if self.phase_signal not in PHASE_SIGNALS:
            raise ConfigurationError(
                f"phase_signal must be one of {PHASE_SIGNALS}, "
                f"got {self.phase_signal!r}"
            )
        if self.bbv_period_ops <= self.detail_ops + self.warmup_ops:
            raise ConfigurationError(
                "bbv_period_ops must exceed warmup_ops + detail_ops"
            )
        if not 0.0 < self.threshold_pi <= 1.0:
            raise ConfigurationError("threshold_pi must be in (0, 1]")
        if self.spread_ops < 0:
            raise ConfigurationError("spread_ops must be non-negative")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be at least 1")
        if self.fixed_samples_per_phase is not None and self.fixed_samples_per_phase < 1:
            raise ConfigurationError("fixed_samples_per_phase must be >= 1")

    @classmethod
    def from_scale(
        cls,
        scale: ScaleConfig,
        bbv_period_ops: Optional[int] = None,
        threshold_pi: float = 0.05,
        **overrides: Any,
    ) -> "PgssConfig":
        """The scale's canonical PGSS configuration (paper best: 1M/.05)."""
        budget = scale.sample_budget
        params = dict(
            detail_ops=budget.detail_ops,
            warmup_ops=budget.warmup_ops,
            spread_ops=scale.pgss_spread,
            rel_error=budget.rel_error,
            confidence=budget.confidence,
        )
        params.update(overrides)
        return cls(
            bbv_period_ops=bbv_period_ops or scale.pgss_best_period,
            threshold_pi=threshold_pi,
            **params,
        )

    @property
    def label(self) -> str:
        """Short config label, e.g. ``"80k/.05"``."""
        label = (
            f"{ops_label(self.bbv_period_ops)}"
            f"/.{int(round(self.threshold_pi * 100)):02d}"
        )
        if self.phase_signal != "bbv":
            label += f"/{self.phase_signal}"
        return label


class Pgss(SamplingTechnique):
    """Phase-Guided Small-Sample Simulation."""

    name = "PGSS"
    config: PgssConfig

    def _make_tracker(self) -> SignalTracker:
        cfg = self.config
        return make_signal_tracker(
            cfg.phase_signal,
            hash_seed=cfg.hash_seed,
            wide_bbv_buckets=cfg.wide_bbv_buckets,
            mav_buckets=cfg.mav_buckets,
        )

    @property
    def replays_outcomes(self) -> bool:
        """Always: the Fig. 5 loop only warms and samples."""
        return True

    def run(
        self,
        program: Program,
        bus: Optional[EventBus] = None,
        outcomes: Optional[OutcomeRecord] = None,
        **kwargs: Any,
    ) -> SamplingResult:
        """Execute the Fig. 5 loop over *program* (replaying *outcomes*
        when given)."""
        engine = SimulationEngine(
            program,
            machine=self.machine,
            signal_tracker=self._make_tracker(),
            outcomes=outcomes,
        )
        controller = PgssController(engine, self.config, bus=bus)
        controller.run()
        return controller.result()


class PgssController:
    """Incremental executor of the Fig. 5 loop.

    The loop is expressed once, as a dynamic sampling plan (a generator
    of :class:`~repro.sampling.session.ModeSegment`\\ s with a
    :data:`PAUSE` at the bottom of each iteration), and executed by a
    :class:`~repro.sampling.session.SessionDriver`.  One :meth:`step`
    call performs one loop iteration: fast-forward a BBV period (with
    the first call additionally taking the Fig. 5 START sample),
    classify the period, and take a detailed sample if the current phase
    needs one.  The stepping interface is what lets the multicore
    extension (paper Section 7) interleave several cores' PGSS loops
    over a shared memory hierarchy; :meth:`Pgss.run` drives the very
    same plan to completion.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: PgssConfig,
        bus: Optional[EventBus] = None,
    ) -> None:
        if engine.signal_tracker is None:
            raise ConfigurationError(
                "PGSS requires an engine with a phase-signal tracker"
            )
        self.engine = engine
        self.config = config
        self.session = SamplingSession(engine, bus=bus)
        self.classifier = OnlinePhaseClassifier(
            config.threshold_pi * math.pi,
            metric=config.metric,
            bus=self.session.bus,
        )
        self._pending: Optional[Tuple[float, int, int, int]] = None
        #: Ops executed since the last classification (attributed to the
        #: phase chosen at the next period boundary).
        self._ops_unattributed = 0
        self._finished = False
        self._ff_ops = config.bbv_period_ops - config.warmup_ops - config.detail_ops
        self._driver = SessionDriver(self.session, self._fig5_plan())

    @property
    def n_samples(self) -> int:
        """Detailed samples taken so far."""
        return self.session.n_samples

    def _phase_needs_sample(self, phase: PhaseProfile, op_offset: int) -> bool:
        """The two Fig. 5 decision diamonds after classification."""
        cfg = self.config
        if cfg.fixed_samples_per_phase is not None:
            if phase.n_samples >= cfg.fixed_samples_per_phase:
                return False
        elif phase.within_bounds(cfg.rel_error, cfg.confidence, cfg.min_samples):
            return False
        if (
            cfg.use_spread_rule
            and phase.last_sample_op is not None
            and op_offset - phase.last_sample_op < cfg.spread_ops
        ):
            return False
        return True

    def _sample_plan(
        self,
    ) -> Generator[ModeSegment, Any, Optional[Tuple[float, int, int]]]:
        """Sub-plan: detailed warm-up + measured sample.

        Yields the two segments and returns ``(ipc, ops, cycles)``, or
        ``None`` when the program ended during warm-up or the sample
        measured nothing.
        """
        cfg = self.config
        if cfg.warmup_ops:
            warm = yield ModeSegment(
                Mode.DETAIL_WARM, cfg.warmup_ops, role=SegmentRole.WARMUP
            )
            self._ops_unattributed += warm.run.ops
            if self.engine.exhausted:
                return None
        out = yield ModeSegment(
            Mode.DETAIL, cfg.detail_ops, role=SegmentRole.SAMPLE, measure=True
        )
        self._ops_unattributed += out.run.ops
        if out.sample is not None:
            return (out.run.ipc, out.run.ops, out.run.cycles)
        return None

    def _fig5_plan(self) -> SegmentPlan:
        """The Fig. 5 loop as a dynamic sampling plan."""
        engine = self.engine
        classifier = self.classifier

        # Fig. 5 START: warm-up + first sample before any phase
        # information exists; credited to the first period's phase.
        first = yield from self._sample_plan()
        if first is not None:
            self._pending = (*first, engine.ops_completed)

        while True:
            if engine.exhausted:
                self._wrap_up()
                return
            ff = yield ModeSegment(
                Mode.FUNC_WARM, self._ff_ops, role=SegmentRole.FAST_FORWARD
            )
            self._ops_unattributed += ff.run.ops
            vector = engine.signal_tracker.take_vector(normalize=True)
            classifier.observe(vector, self._ops_unattributed)
            self._ops_unattributed = 0
            phase = classifier.current_phase
            if self._pending is not None:
                ipc, s_ops, s_cycles, offset = self._pending
                phase.add_sample(ipc, offset, ops=s_ops, cycles=s_cycles)
                self._pending = None
            if engine.exhausted:
                self._wrap_up()
                return
            if self._phase_needs_sample(phase, engine.ops_completed):
                sample = yield from self._sample_plan()
                if sample is not None:
                    ipc, s_ops, s_cycles = sample
                    phase.add_sample(
                        ipc, engine.ops_completed, ops=s_ops, cycles=s_cycles
                    )
                # Ops of the sample region belong to the current phase.
                phase.add_ops(self._ops_unattributed)
                self._ops_unattributed = 0
            if engine.exhausted:
                self._wrap_up()
                return
            yield PAUSE

    def step(self) -> bool:
        """Run one Fig. 5 iteration; returns False once the program ends."""
        return self._driver.step()

    def run(self) -> None:
        """Drive the plan to completion."""
        self._driver.run()

    def _wrap_up(self) -> None:
        classifier = self.classifier
        if classifier.current_phase is not None and self._ops_unattributed:
            classifier.current_phase.add_ops(self._ops_unattributed)
            self._ops_unattributed = 0
        if self._pending is not None and classifier.current_phase is not None:
            ipc, s_ops, s_cycles, offset = self._pending
            classifier.current_phase.add_sample(
                ipc, offset, ops=s_ops, cycles=s_cycles
            )
            self._pending = None
        self._finished = True

    def result(self) -> SamplingResult:
        """Assemble the final estimate (call after stepping completes).

        Raises:
            SamplingError: when the program ended before one full BBV
                period, so no phase was ever observed.
        """
        if not self._finished:
            self._wrap_up()
        classifier = self.classifier
        engine = self.engine
        if classifier.n_phases == 0:
            raise SamplingError(
                f"{engine.program.name} ended before the first BBV period; "
                f"shrink bbv_period_ops (currently "
                f"{self.config.bbv_period_ops})"
            )
        ops_per_phase = classifier.ops_per_phase()
        samples_per_phase = {
            p.phase_id: p.sample_ops_cycles for p in classifier.phases
        }
        estimate = stratified_ratio_ipc(ops_per_phase, samples_per_phase)
        return final_result(
            Pgss.name,
            engine.program.name,
            estimate.ipc,
            self.n_samples,
            engine.accounting,
            self.session.bus,
            extras={
                "config": self.config.label,
                "n_phases": classifier.n_phases,
                "n_phase_changes": classifier.n_changes,
                "samples_per_phase": {
                    p.phase_id: p.n_samples for p in classifier.phases
                },
                "uncovered_weight": estimate.uncovered_weight,
            },
        )
