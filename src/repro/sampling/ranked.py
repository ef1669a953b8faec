"""Ranked-set sampling over fixed-length intervals.

Ranked-set sampling (McIntyre's estimator, imported into simulation
sampling as a cheap-proxy technique): instead of measuring intervals at
random, form *cycles* of ``set_size`` consecutive intervals, rank each
cycle's intervals by an inexpensive proxy of their performance, and
measure (in DETAIL) only one interval per cycle — cycle ``c`` measures
the interval holding rank ``c mod set_size``.  Every rank is visited
equally often, so the estimator is unbiased under perfect ranking and
degrades gracefully (to simple systematic sampling) as the proxy's
ranking quality decays; with an informative proxy, each rank's
population is far tighter than the whole, so fewer detailed samples hit
the same precision.

The proxy here is a functional-warming IPC model: during the ranking
pass the engine runs FUNC_WARM (caches and branch predictor update but
no cycle-accurate timing), and each interval's cache-miss and
misprediction *deltas* are folded into a latency-per-op estimate

``cpi ~ 1/issue_width + (l1_misses * l2_hit + l2_misses * mem
+ mispredicts * penalty) / ops``

— the structural cost model, evaluated from warm functional state only.

Both passes are sampling-session plans.  The ranking pass warms the
whole program on an :class:`~repro.cpu.record.OutcomeRecord`'s engine,
and the measurement pass, the kernel's shared
:func:`~repro.sampling.session.interval_sample_plan`, replays its
detailed timing from that record instead of warming again.
The confidence interval comes from repeated subsampling: the measured
cycle sequence is split round-robin into ``n_subsamples`` interleaved
replicates, each replicate re-estimated with the same per-rank
estimator, and a Student-t interval taken over the replicate estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ScaleConfig
from ..cpu import Mode, ModeAccounting, OutcomeRecord
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..program import Program
from ..stats.ci import ConfidenceInterval, t_value
from .base import SamplingResult, SamplingTechnique, final_result, ops_label
from .session import (
    ModeSegment,
    SamplingSession,
    SegmentPlan,
    SegmentRole,
    measure_intervals,
)

__all__ = ["RankedSetConfig", "RankedSetSampling"]


@dataclass(frozen=True)
class RankedSetConfig:
    """Ranked-set sampling parameters.

    Attributes:
        interval_ops: interval length; ``set_size`` consecutive intervals
            form one ranking cycle.
        set_size: intervals per ranking cycle (one is measured).
        detail_ops: measured detailed-sample length.
        warmup_ops: detailed warming before each sample.
        n_subsamples: interleaved replicates of the repeated-subsampling
            variance estimator.
        confidence: confidence level of the reported interval.
    """

    interval_ops: int
    set_size: int = 3
    detail_ops: int = 1_000
    warmup_ops: int = 3_000
    n_subsamples: int = 4
    confidence: float = 0.997

    def __post_init__(self) -> None:
        if self.interval_ops <= self.detail_ops + self.warmup_ops:
            raise ConfigurationError(
                "interval_ops must exceed warmup_ops + detail_ops"
            )
        if self.set_size < 2:
            raise ConfigurationError("set_size must be at least 2")
        if self.n_subsamples < 2:
            raise ConfigurationError("n_subsamples must be at least 2")

    @classmethod
    def from_scale(cls, scale: ScaleConfig, **overrides: Any) -> "RankedSetConfig":
        """The scale's canonical ranked-set configuration."""
        budget = scale.sample_budget
        params: Dict[str, Any] = dict(
            interval_ops=scale.pgss_best_period,
            detail_ops=budget.detail_ops,
            warmup_ops=budget.warmup_ops,
            confidence=budget.confidence,
        )
        params.update(overrides)
        return cls(**params)

    @property
    def label(self) -> str:
        """Short config label, e.g. ``"8kx3r4"``."""
        return (
            f"{ops_label(self.interval_ops)}x{self.set_size}r{self.n_subsamples}"
        )


class RankedSetSampling(SamplingTechnique):
    """Rank intervals by a func-warm cost proxy; measure one per cycle."""

    name = "RankedSet"
    config: RankedSetConfig

    def _proxy_pass(
        self, record: OutcomeRecord, bus: Optional[EventBus]
    ) -> List[float]:
        """Rank pass: per-interval proxy CPI from FUNC_WARM stat deltas,
        on the record's engine (so it records the whole program)."""
        cfg = self.config
        machine = self.machine
        engine = record.engine
        session = SamplingSession(engine, bus=bus)
        proxies: List[float] = []

        def snapshot() -> Tuple[int, int, int]:
            l1 = (
                engine.hierarchy.l1i.stats.misses
                + engine.hierarchy.l1d.stats.misses
            )
            return (
                l1,
                engine.hierarchy.l2.stats.misses,
                engine.predictor.stats.mispredictions,
            )

        def plan() -> SegmentPlan:
            while not engine.exhausted:
                before = snapshot()
                outcome = yield ModeSegment(
                    Mode.FUNC_WARM, cfg.interval_ops, role=SegmentRole.PROFILE
                )
                if outcome.run.ops == 0:
                    break
                after = snapshot()
                l1_misses = after[0] - before[0]
                l2_misses = after[1] - before[1]
                mispredicts = after[2] - before[2]
                penalty_cycles = (
                    l1_misses * machine.l2.hit_latency
                    + l2_misses * machine.memory_latency
                    + mispredicts * machine.mispredict_penalty
                )
                proxies.append(
                    1.0 / machine.issue_width
                    + penalty_cycles / outcome.run.ops
                )

        session.execute(plan())
        return proxies

    @staticmethod
    def _select(proxies: List[float], set_size: int) -> List[int]:
        """Interval indices to measure: rank ``c % set_size`` of cycle c."""
        n_cycles = len(proxies) // set_size
        selected: List[int] = []
        for cycle in range(n_cycles):
            group = list(
                range(cycle * set_size, (cycle + 1) * set_size)
            )
            ranked = sorted(group, key=lambda i: (proxies[i], i))
            selected.append(ranked[cycle % set_size])
        return selected

    def _estimate_ipc(
        self, by_rank: Dict[int, List[Tuple[int, int]]]
    ) -> float:
        """Equal-rank-weight IPC: mean of per-rank pooled CPIs, inverted."""
        cpis = []
        for pairs in by_rank.values():
            ops = sum(p[0] for p in pairs)
            cycles = sum(p[1] for p in pairs)
            if ops > 0:
                cpis.append(cycles / ops)
        if not cpis:
            raise SamplingError("no measured ranked-set samples")
        return 1.0 / (sum(cpis) / len(cpis))

    def run(
        self, program: Program, bus: Optional[EventBus] = None, **kwargs: Any
    ) -> SamplingResult:
        """Rank, select, measure, estimate."""
        cfg = self.config
        record = OutcomeRecord(program, self.machine)
        proxies = self._proxy_pass(record, bus)
        n_cycles = len(proxies) // cfg.set_size
        if n_cycles == 0:
            raise SamplingError(
                f"{program.name} has fewer than {cfg.set_size} "
                f"{cfg.interval_ops}-op intervals; no complete ranking cycle"
            )
        selected = self._select(proxies, cfg.set_size)

        measured, measure_accounting = measure_intervals(
            record,
            selected,
            cfg.interval_ops,
            cfg.warmup_ops,
            cfg.detail_ops,
            bus,
        )
        # Cycle order: cycle c's selection carries rank c % set_size.
        per_cycle: List[Tuple[int, Tuple[int, int]]] = [
            (cycle % cfg.set_size, measured[index])
            for cycle, index in enumerate(selected)
            if index in measured
        ]
        if not per_cycle:
            raise SamplingError("no ranked-set interval was measured")
        by_rank: Dict[int, List[Tuple[int, int]]] = {}
        for rank, pair in per_cycle:
            by_rank.setdefault(rank, []).append(pair)
        ipc = self._estimate_ipc(by_rank)

        # Repeated subsampling: interleaved replicates, each re-estimated.
        replicate_ipcs: List[float] = []
        for offset in range(cfg.n_subsamples):
            replicate: Dict[int, List[Tuple[int, int]]] = {}
            for rank, pair in per_cycle[offset :: cfg.n_subsamples]:
                replicate.setdefault(rank, []).append(pair)
            if replicate:
                replicate_ipcs.append(self._estimate_ipc(replicate))
        if len(replicate_ipcs) >= 2:
            scatter = np.asarray(replicate_ipcs, dtype=np.float64)
            half = t_value(cfg.confidence, len(replicate_ipcs) - 1) * float(
                scatter.std(ddof=1)
            ) / math.sqrt(len(replicate_ipcs))
        else:
            half = math.inf
        ci = ConfidenceInterval(ipc, half, cfg.confidence, len(per_cycle))

        accounting = ModeAccounting()
        accounting.merge(record.engine.accounting)
        accounting.merge(measure_accounting)
        rank_counts = {rank: len(pairs) for rank, pairs in sorted(by_rank.items())}
        return final_result(
            self.name,
            program.name,
            ipc,
            len(per_cycle),
            accounting,
            bus,
            ci=ci,
            extras={
                "config": cfg.label,
                "n_intervals": len(proxies),
                "n_cycles": n_cycles,
                "set_size": cfg.set_size,
                "rank_counts": rank_counts,
                "n_replicates": len(replicate_ipcs),
            },
        )
