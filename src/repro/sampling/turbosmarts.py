"""TurboSMARTS: random-order sampling to a confidence target.

Wenisch et al. (ISPASS'06) store tiny warm-state checkpoints (livepoints)
for every SMARTS sample position, then simulate samples "in a random order
until they converge within certain statistical error bounds" — the paper
uses 3% relative error at 99.7% confidence.  The paper's criticism: the
bound assumes a Gaussian sample population, so for phased (polymodal)
programs "the absolute error typically falls well outside these bounds".

Emulation note (see DESIGN.md): livepoint collection is replaced by one
warmed SMARTS pass (the shared periodic session plan) that measures every
sample; the estimator then consumes them in random order exactly as
TurboSMARTS would, and the reported detailed-op cost is ``consumed x
(warmup + detail)`` — the cost the real system would pay.  The error and
cost metrics are therefore exactly those of the real estimator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional

from ..config import ScaleConfig
from ..errors import ConfigurationError, SamplingError
from ..events import EstimateUpdated, EventBus
from ..program import Program
from ..stats.ci import ConfidenceInterval, normal_ci
from .base import SamplingResult, SamplingTechnique, final_result
from .session import SessionSample
from .smarts import Smarts, SmartsConfig

__all__ = ["TurboSmartsConfig", "TurboSmarts"]


@dataclass(frozen=True)
class TurboSmartsConfig:
    """TurboSMARTS parameters.

    Attributes:
        smarts: the underlying SMARTS sample universe definition.
        rel_error: relative CI half-width target (paper: 3%).
        confidence: confidence level (paper: 99.7%).
        min_samples: samples always taken before the bound is tested.
        seed: RNG seed for the random sample order.
    """

    smarts: SmartsConfig
    rel_error: float = 0.03
    confidence: float = 0.997
    min_samples: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.rel_error <= 0:
            raise ConfigurationError("rel_error must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0, 1)")
        if self.min_samples < 2:
            raise ConfigurationError("min_samples must be at least 2")

    @classmethod
    def from_scale(cls, scale: ScaleConfig) -> "TurboSmartsConfig":
        """The scale's canonical TurboSMARTS configuration."""
        budget = scale.sample_budget
        return cls(
            smarts=SmartsConfig.from_scale(scale),
            rel_error=budget.rel_error,
            confidence=budget.confidence,
        )


class TurboSmarts(SamplingTechnique):
    """Random-order sampling until the confidence bound is met."""

    name = "TurboSMARTS"
    config: TurboSmartsConfig

    def run(
        self, program: Program, bus: Optional[EventBus] = None, **kwargs: Any
    ) -> SamplingResult:
        """Consume the SMARTS sample universe in random order until the
        CI half-width is inside the relative-error target."""
        cfg = self.config
        collector = Smarts(cfg.smarts, machine=self.machine)
        samples, accounting = collector.collect_samples(program, bus=bus)
        if not samples:
            raise SamplingError(
                f"{program.name} ended before the first sample; shrink "
                f"period_ops (currently {cfg.smarts.period_ops})"
            )

        order = list(range(len(samples)))
        random.Random(cfg.seed).shuffle(order)

        # The estimate is the ratio of the consumed samples' ops to their
        # cycles, running and final alike; the stopping rule reads the
        # interval over their per-sample IPCs.
        consumed: List[SessionSample] = []
        total_ops = total_cycles = 0
        ci: Optional[ConfidenceInterval] = None
        for pos in order:
            sample = samples[pos]
            consumed.append(sample)
            total_ops += sample.ops
            total_cycles += sample.cycles
            ipc = total_ops / total_cycles if total_cycles else 0.0
            if len(consumed) < cfg.min_samples:
                continue
            ci = normal_ci([s.ipc for s in consumed], cfg.confidence)
            if bus is not None:
                bus.emit(
                    EstimateUpdated(
                        technique=self.name,
                        ipc=ipc,
                        n_samples=len(consumed),
                        final=False,
                    )
                )
            if ci.within_relative(cfg.rel_error):
                break
        if ci is None:
            ci = normal_ci([s.ipc for s in consumed], cfg.confidence)

        per_sample_cost = cfg.smarts.detail_ops + cfg.smarts.warmup_ops
        return final_result(
            self.name,
            program.name,
            ipc,
            len(consumed),
            accounting,
            bus,
            detailed_ops=len(consumed) * per_sample_cost,
            ci=ci,
            extras={
                "universe_size": len(samples),
                "converged": ci.within_relative(cfg.rel_error),
                "rel_error_target": cfg.rel_error,
            },
        )
