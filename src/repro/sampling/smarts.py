"""SMARTS: systematic small-sample simulation (Wunderlich et al., ISCA'03).

"Very short, periodic samples of detailed simulation on the order of a
thousand instructions are interleaved with longer periods, on the order of
one million instructions, of functional simulation of the processor core"
with caches and branch predictors kept warm, and "each detailed simulation
period is immediately preceded by an interval of three or four thousand
instructions of detailed simulation in which statistics are not measured".

The schedule is the canonical *static* sampling plan: one
:func:`~repro.sampling.session.periodic_plan` executed by a
:class:`~repro.sampling.session.SamplingSession`.  The IPC estimate is
the ratio estimator (total sampled ops over total sampled cycles); the
per-sample IPC population additionally yields the normal-theory
confidence interval whose unimodal-Gaussian assumption the paper
criticises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..config import ScaleConfig
from ..cpu import Mode, ModeAccounting, OutcomeRecord, SimulationEngine
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..program import Program
from ..stats.ci import normal_ci
from .base import SamplingResult, SamplingTechnique, final_result
from .session import SamplingSession, SessionSample, periodic_plan

__all__ = ["SmartsConfig", "Smarts"]


@dataclass(frozen=True)
class SmartsConfig:
    """SMARTS parameters.

    Attributes:
        period_ops: distance between sample starts (fast-forward length is
            ``period_ops - warmup_ops - detail_ops``).
        detail_ops: measured detailed-sample length (paper: 1000).
        warmup_ops: detailed warming before each sample (paper: ~3000).
        confidence: confidence level of the reported interval.
        functional_warming: keep caches and branch predictors warm during
            fast-forwarding (the SMARTS methodology).  Disabling it gives
            the cold-sample baseline of early sampled simulation (Conte et
            al., ICCD'96 — the paper's reference [2]), whose samples start
            from stale long-lifetime state and are biased slow.
    """

    period_ops: int
    detail_ops: int = 1_000
    warmup_ops: int = 3_000
    confidence: float = 0.997
    functional_warming: bool = True

    def __post_init__(self) -> None:
        if self.detail_ops <= 0 or self.warmup_ops < 0:
            raise ConfigurationError("sample lengths must be positive")
        if self.period_ops <= self.detail_ops + self.warmup_ops:
            raise ConfigurationError(
                "period_ops must exceed warmup_ops + detail_ops"
            )

    @classmethod
    def from_scale(cls, scale: ScaleConfig) -> "SmartsConfig":
        """The scale's canonical SMARTS configuration."""
        budget = scale.sample_budget
        return cls(
            period_ops=scale.smarts_period,
            detail_ops=budget.detail_ops,
            warmup_ops=budget.warmup_ops,
            confidence=budget.confidence,
        )


class Smarts(SamplingTechnique):
    """Systematic small-sample simulation with functional warming."""

    name = "SMARTS"
    config: SmartsConfig

    @property
    def replays_outcomes(self) -> bool:
        """Only with functional warming: a cold FUNC_FAST skip must leave
        the caches cold, and a replaying engine's state is always warm."""
        return self.config.functional_warming

    def collect_samples(
        self,
        program: Program,
        bus: Optional[EventBus] = None,
        outcomes: Optional[OutcomeRecord] = None,
    ) -> Tuple[List[SessionSample], ModeAccounting]:
        """One warmed pass over *program*; returns (samples, accounting).

        Shared with :class:`~repro.sampling.TurboSmarts`, which replays the
        same sample universe in random order.  With *outcomes* (and
        functional warming) the pass replays that record.
        """
        cfg = self.config
        engine = SimulationEngine(
            program,
            machine=self.machine,
            outcomes=outcomes if self.replays_outcomes else None,
        )
        session = SamplingSession(engine, bus=bus)
        ff_ops = cfg.period_ops - cfg.warmup_ops - cfg.detail_ops
        ff_mode = Mode.FUNC_WARM if cfg.functional_warming else Mode.FUNC_FAST
        session.execute(
            periodic_plan(ff_mode, ff_ops, cfg.warmup_ops, cfg.detail_ops)
        )
        return session.samples, engine.accounting

    def run(
        self,
        program: Program,
        bus: Optional[EventBus] = None,
        outcomes: Optional[OutcomeRecord] = None,
        **kwargs: Any,
    ) -> SamplingResult:
        """Estimate IPC from evenly spaced small samples.

        Raises:
            SamplingError: when the program is too short for even one
                sample at the configured period.
        """
        samples, accounting = self.collect_samples(program, bus=bus, outcomes=outcomes)
        if not samples:
            raise SamplingError(
                f"{program.name} ended before the first sample; shrink "
                f"period_ops (currently {self.config.period_ops})"
            )
        total_ops = sum(s.ops for s in samples)
        total_cycles = sum(s.cycles for s in samples)
        ipc = total_ops / total_cycles if total_cycles else 0.0
        return final_result(
            self.name,
            program.name,
            ipc,
            len(samples),
            accounting,
            bus,
            ci=normal_ci([s.ipc for s in samples], self.config.confidence),
            extras={"period_ops": self.config.period_ops},
        )
