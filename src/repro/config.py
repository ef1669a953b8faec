"""Configuration objects shared across the framework.

Two kinds of configuration live here:

* :class:`MachineConfig` — the simulated machine (paper Section 5: a 4-wide
  in-order superscalar with a split 4-way 64 KB L1 and a unified 1 MB L2).
* :class:`ScaleConfig` — the interval-length parameter set.  The paper runs
  SPEC2000 for billions of operations; a pure-Python reproduction scales all
  interval lengths down uniformly so that the *comparative* results (who
  wins, by what factor) are preserved.  ``Scale.PAPER`` keeps the paper's
  literal values, ``Scale.SCALED`` is the default used by the experiment
  harness, and ``Scale.QUICK`` is a miniature used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .errors import ConfigurationError

__all__ = [
    "CacheConfig",
    "MachineConfig",
    "SampleBudget",
    "ScaleConfig",
    "Scale",
    "DEFAULT_MACHINE",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a single cache level.

    Attributes:
        size_bytes: total capacity in bytes.
        assoc: number of ways per set.
        line_bytes: cache line size in bytes (must be a power of two).
        hit_latency: cycles to satisfy a hit at this level.
    """

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache dimensions must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line_bytes must be a power of two")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigurationError(
                "size_bytes must be a multiple of assoc * line_bytes"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated processor, mirroring the paper's evaluation machine.

    The paper simulates a 4-wide issue, superscalar, in-order processor with
    a split first-level cache (4-way associative, 64 KB each for data and
    instructions) and a 1 MB unified L2.
    """

    issue_width: int = 4
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, 4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, 4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 8, hit_latency=10)
    )
    memory_latency: int = 80
    mispredict_penalty: int = 8
    branch_history_bits: int = 12
    n_mshrs: int = 4

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigurationError("issue_width must be positive")
        if self.memory_latency <= 0 or self.mispredict_penalty < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.n_mshrs < 1:
            raise ConfigurationError("n_mshrs must be at least 1")

    def scaled_cache(self, l1_kb: int, l2_kb: int) -> "MachineConfig":
        """Return a copy with resized caches (used by design-space studies)."""
        return replace(
            self,
            l1i=replace(self.l1i, size_bytes=l1_kb * 1024),
            l1d=replace(self.l1d, size_bytes=l1_kb * 1024),
            l2=replace(self.l2, size_bytes=l2_kb * 1024),
        )


DEFAULT_MACHINE = MachineConfig()


@dataclass(frozen=True)
class SampleBudget:
    """The per-sample cost/precision contract shared by the sampling
    techniques.

    SMARTS, TurboSMARTS, and PGSS all take detailed samples of the same
    shape — ``warmup_ops`` of detailed warming followed by ``detail_ops``
    of measured detailed simulation — and the confidence-driven ones stop
    at the same ``rel_error`` @ ``confidence`` target.  Each technique's
    ``from_scale`` constructor reads this one object (via
    :attr:`ScaleConfig.sample_budget`) instead of cherry-picking scale
    fields, so the paper's Table 1 values cannot drift apart between
    techniques.

    Attributes:
        detail_ops: measured detailed-sample length (paper: 1000).
        warmup_ops: detailed warming before each sample (paper: ~3000).
        rel_error: relative CI half-width target (paper: 3%).
        confidence: confidence level (paper: 99.7%).
        pilot_per_stratum: stage-1 pilot samples per stratum for the
            two-phase (stratified) techniques — the cheap variance probe
            that Neyman allocation divides the remaining budget by.
        stage2_samples: total detailed-sample budget the two-phase
            techniques split across strata (pilots included).
    """

    detail_ops: int
    warmup_ops: int
    rel_error: float
    confidence: float
    pilot_per_stratum: int = 2
    stage2_samples: int = 24

    def __post_init__(self) -> None:
        if self.detail_ops <= 0 or self.warmup_ops < 0:
            raise ConfigurationError("sample lengths must be positive")
        if self.rel_error <= 0:
            raise ConfigurationError("rel_error must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0, 1)")
        if self.pilot_per_stratum < 1:
            raise ConfigurationError("pilot_per_stratum must be at least 1")
        if self.stage2_samples < 1:
            raise ConfigurationError("stage2_samples must be at least 1")

@dataclass(frozen=True)
class ScaleConfig:
    """Interval-length parameter set for the sampling techniques.

    All lengths are in dynamic operations.  The mapping from the paper's
    values to the scaled defaults is documented in DESIGN.md ("Scaling map").

    Attributes:
        name: identifier used in result caching.
        benchmark_ops: target dynamic length of each synthetic benchmark.
        smarts_detail: SMARTS measured-sample length (paper: 1000).
        smarts_warmup: detailed-warming length before each sample
            (paper: 3000-4000; the paper counts "approximately four thousand
            instructions per sample" of warm+detail).
        smarts_period: functional fast-forward length between SMARTS samples
            (paper: ~1M).
        pgss_periods: BBV sampling periods swept in Fig. 11
            (paper: 100k / 1M / 10M).
        pgss_best_period: the paper's best overall period (1M).
        pgss_spread: minimum ops between two detailed samples inside one
            phase (paper: 1M).
        thresholds: BBV angle thresholds swept, as fractions of pi
            (paper: .05-.25).
        simpoint_intervals: SimPoint interval sizes (paper: 1M / 10M / 100M).
        simpoint_clusters: cluster counts tried per interval size
            (paper: 5 / 10 / 20).
        simpoint_extra: the paper's two extra configurations
            (30 clusters x 10M and 300 clusters x 1M), expressed as
            (n_clusters, interval) pairs in scaled units.
        turbo_confidence: TurboSMARTS confidence level (paper: 99.7%).
        turbo_rel_error: TurboSMARTS relative error target (paper: 3%).
        trace_window: window length (ops) of the instrumented reference
            trace used by the offline analyses (Figs. 2, 3, 7-10) and by
            SimPoint's profiling pass.  All interval sizes above must be
            multiples of this.
        stratified_pilot: stage-1 pilot samples per stratum for the
            two-phase stratified technique (variance probe).
        stratified_samples: total detailed-sample budget of the
            stage-1/stage-2 split techniques (pilots included).
    """

    name: str
    benchmark_ops: int
    smarts_detail: int
    smarts_warmup: int
    smarts_period: int
    pgss_periods: Tuple[int, ...]
    pgss_best_period: int
    pgss_spread: int
    thresholds: Tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25)
    simpoint_intervals: Tuple[int, ...] = ()
    simpoint_clusters: Tuple[int, ...] = (5, 10, 20)
    simpoint_extra: Tuple[Tuple[int, int], ...] = ()
    turbo_confidence: float = 0.997
    turbo_rel_error: float = 0.03
    trace_window: int = 5_000
    stratified_pilot: int = 2
    stratified_samples: int = 24

    def __post_init__(self) -> None:
        if self.benchmark_ops <= 0:
            raise ConfigurationError("benchmark_ops must be positive")
        if self.smarts_detail <= 0 or self.smarts_warmup < 0:
            raise ConfigurationError("SMARTS sample lengths must be positive")
        if not self.pgss_periods:
            raise ConfigurationError("at least one PGSS period is required")
        if not 0.0 < self.turbo_confidence < 1.0:
            raise ConfigurationError("turbo_confidence must be in (0, 1)")
        if self.trace_window <= 0:
            raise ConfigurationError("trace_window must be positive")
        for interval in tuple(self.simpoint_intervals) + tuple(self.pgss_periods):
            if interval % self.trace_window:
                raise ConfigurationError(
                    f"interval {interval} is not a multiple of the "
                    f"{self.trace_window}-op trace window"
                )

    @property
    def sample_budget(self) -> SampleBudget:
        """The scale's per-sample cost/precision contract.

        The single source every technique's ``from_scale`` constructor
        derives its sample shape and confidence target from.
        """
        return SampleBudget(
            detail_ops=self.smarts_detail,
            warmup_ops=self.smarts_warmup,
            rel_error=self.turbo_rel_error,
            confidence=self.turbo_confidence,
            pilot_per_stratum=self.stratified_pilot,
            stage2_samples=self.stratified_samples,
        )


class Scale:
    """The three predefined :class:`ScaleConfig` instances.

    ``PAPER`` uses the paper's literal interval lengths (only practical for
    users with hours of patience); ``SCALED`` is the default used by the
    benchmark harness; ``QUICK`` is a miniature for unit tests.
    """

    PAPER = ScaleConfig(
        name="paper",
        benchmark_ops=2_000_000_000,
        smarts_detail=1_000,
        smarts_warmup=3_000,
        smarts_period=1_000_000,
        pgss_periods=(100_000, 1_000_000, 10_000_000),
        pgss_best_period=1_000_000,
        pgss_spread=1_000_000,
        simpoint_intervals=(1_000_000, 10_000_000, 100_000_000),
        simpoint_extra=((30, 10_000_000), (300, 1_000_000)),
        trace_window=100_000,
        stratified_pilot=3,
        stratified_samples=100,
    )

    SCALED = ScaleConfig(
        name="scaled",
        benchmark_ops=6_000_000,
        smarts_detail=1_000,
        smarts_warmup=2_000,
        smarts_period=30_000,
        pgss_periods=(20_000, 80_000, 320_000),
        pgss_best_period=80_000,
        pgss_spread=160_000,
        simpoint_intervals=(30_000, 80_000, 320_000),
        simpoint_extra=((30, 80_000), (100, 30_000)),
        # The paper's 3% @ 99.7% target presumes a ~200k-sample universe;
        # the scaled universe is ~1000x smaller, so the relative-error
        # target is relaxed to keep the *fraction* of the universe that
        # TurboSMARTS consumes comparable (see DESIGN.md).
        turbo_rel_error=0.10,
        trace_window=5_000,
        stratified_pilot=2,
        stratified_samples=40,
    )

    QUICK = ScaleConfig(
        name="quick",
        benchmark_ops=300_000,
        smarts_detail=500,
        smarts_warmup=500,
        smarts_period=6_000,
        pgss_periods=(4_000, 8_000, 24_000),
        pgss_best_period=8_000,
        pgss_spread=24_000,
        simpoint_intervals=(8_000, 24_000, 48_000),
        simpoint_clusters=(3, 5, 8),
        simpoint_extra=(),
        trace_window=1_000,
        stratified_pilot=2,
        stratified_samples=16,
    )
