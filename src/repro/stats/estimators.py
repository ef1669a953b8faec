"""The stratified point estimator for sampled simulation.

The stratified (PGSS / SimPoint) estimator weights each stratum
(phase/cluster) by its share of the program's operations, using only the
samples taken inside that stratum.  The simple (SMARTS) estimator, which
treats all samples as one population, is its one-stratum case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..errors import SamplingError

__all__ = ["StratifiedEstimate", "stratified_ratio_ipc"]


@dataclass(frozen=True)
class StratifiedEstimate:
    """A weighted-by-stratum IPC estimate.

    Attributes:
        ipc: the stratified point estimate.
        weights: stratum -> weight (fraction of total ops).
        stratum_means: stratum -> sampled IPC (pooled ops / pooled cycles).
        uncovered_weight: total weight of strata that had no samples and
            fell back to the pooled CPI of the covered strata.
    """

    ipc: float
    weights: Dict[object, float]
    stratum_means: Dict[object, float]
    uncovered_weight: float


def stratified_ratio_ipc(
    ops_per_stratum: Mapping[object, int],
    sample_ops_cycles: Mapping[object, Sequence[tuple]],
) -> StratifiedEstimate:
    """Stratified *ratio* IPC estimate: per-stratum CPI from pooled samples.

    IPC is a ratio quantity, so the unbiased way to combine small samples is
    in cycles-per-op space: each stratum's CPI is estimated as
    ``sum(sample cycles) / sum(sample ops)`` and the program estimate is
    ``total_ops / sum(stratum_ops * stratum_cpi)``.  A plain arithmetic mean
    of per-sample IPCs overweights high-IPC samples — catastrophically so
    for workloads whose fine-grained behaviour oscillates between fast and
    slow micro-phases (the paper's 179.art / 181.mcf discussion).

    Args:
        ops_per_stratum: stratum -> operations attributed to it.
        sample_ops_cycles: stratum -> sequence of ``(ops, cycles)`` pairs,
            one per detailed sample taken in the stratum.

    Strata without samples, or whose samples sum to zero ops or zero
    cycles, count as uncovered and contribute the pooled CPI of the
    covered strata.

    Raises:
        SamplingError: when no stratum is covered, or total ops is 0.
    """
    total_ops = sum(ops_per_stratum.values())
    if total_ops <= 0:
        raise SamplingError("total ops across strata must be positive")

    weights: Dict[object, float] = {
        key: ops / total_ops for key, ops in ops_per_stratum.items()
    }
    stratum_means: Dict[object, float] = {}
    covered_weight = 0.0
    weighted_cpi = 0.0
    for key, weight in weights.items():
        pairs = sample_ops_cycles.get(key, ())
        s_ops = sum(p[0] for p in pairs)
        s_cycles = sum(p[1] for p in pairs)
        if s_ops > 0 and s_cycles > 0:
            cpi = s_cycles / s_ops
            stratum_means[key] = 1.0 / cpi
            covered_weight += weight
            weighted_cpi += weight * cpi
    if covered_weight == 0.0:
        raise SamplingError("no stratum has any samples")

    pooled_cpi = weighted_cpi / covered_weight
    uncovered_weight = 1.0 - covered_weight
    total_cpi = weighted_cpi + uncovered_weight * pooled_cpi
    return StratifiedEstimate(
        ipc=1.0 / total_cpi,
        weights=weights,
        stratum_means=stratum_means,
        uncovered_weight=uncovered_weight,
    )
