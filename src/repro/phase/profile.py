"""Per-phase profiles: representative vector plus performance record.

A phase's representative vector is the running mean of every member
signal vector (BBV by default; re-normalised for comparisons); its
performance record is the list of
detailed-sample IPCs taken inside the phase, with the op offset of the most
recent one — the input to PGSS-Sim's confidence-bound and sample-spreading
decisions (Fig. 5).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..stats.ci import ConfidenceInterval, student_t_ci

__all__ = ["PhaseProfile"]


class PhaseProfile:
    """Accumulated knowledge about one detected phase.

    Args:
        phase_id: dense id assigned by the classifier.
        first_vector: the (normalised) signal vector that created the
            phase.
    """

    def __init__(self, phase_id: int, first_vector: np.ndarray) -> None:
        self.phase_id = phase_id
        self._vector_sum = np.array(first_vector, dtype=np.float64)
        self.vector_count = 1
        #: Total operations attributed to this phase.
        self.ops = 0
        #: IPC of each detailed sample taken while in this phase.
        self.sample_ipcs: List[float] = []
        #: ``(ops, cycles)`` of each detailed sample (for ratio estimation).
        self.sample_ops_cycles: List[tuple] = []
        #: Op offset (program-global) of the most recent detailed sample.
        self.last_sample_op: Optional[int] = None

    @property
    def representative(self) -> np.ndarray:
        """Unit-norm mean of all member vectors."""
        norm = float(np.sqrt(np.dot(self._vector_sum, self._vector_sum)))
        if norm == 0.0:
            return self._vector_sum.copy()
        return self._vector_sum / norm

    def add_vector(self, vector: np.ndarray, ops: int) -> None:
        """Fold one period's vector (and its op count) into the phase."""
        self._vector_sum += vector
        self.vector_count += 1
        self.ops += ops

    def add_ops(self, ops: int) -> None:
        """Attribute *ops* operations to this phase without a new BBV."""
        self.ops += ops

    def add_sample(
        self,
        ipc: float,
        op_offset: int,
        ops: Optional[int] = None,
        cycles: Optional[int] = None,
    ) -> None:
        """Record a detailed sample taken inside this phase.

        Args:
            ipc: the sample's IPC.
            op_offset: program-global op count at which it was taken.
            ops, cycles: the sample's raw counts; when given they feed the
                ratio (CPI-space) estimator, otherwise a 1-op pseudo-count
                consistent with *ipc* is stored.
        """
        self.sample_ipcs.append(ipc)
        if ops is not None and cycles is not None:
            self.sample_ops_cycles.append((ops, cycles))
        elif ipc > 0:
            self.sample_ops_cycles.append((1.0, 1.0 / ipc))
        self.last_sample_op = op_offset

    @property
    def n_samples(self) -> int:
        """Number of detailed samples taken in this phase."""
        return len(self.sample_ipcs)

    @property
    def mean_ipc(self) -> float:
        """Arithmetic mean of sampled IPCs (0.0 when unsampled)."""
        if not self.sample_ipcs:
            return 0.0
        return float(np.mean(self.sample_ipcs))

    def confidence_interval(self, confidence: float = 0.997) -> ConfidenceInterval:
        """Student-t CI over this phase's sample IPCs."""
        return student_t_ci(self.sample_ipcs, confidence)

    def within_bounds(
        self,
        rel_error: float = 0.03,
        confidence: float = 0.997,
        min_samples: int = 3,
    ) -> bool:
        """The Fig. 5 "Is Phase Within Confidence Bounds?" test.

        True when at least *min_samples* samples exist and the CI half
        width is inside ``rel_error`` of the mean.  A phase whose samples
        are all identical is trivially converged.
        """
        if self.n_samples < min_samples:
            return False
        ci = self.confidence_interval(confidence)
        if math.isinf(ci.half_width):
            return False
        return ci.within_relative(rel_error)

    def __repr__(self) -> str:
        return (
            f"PhaseProfile(id={self.phase_id}, vectors={self.vector_count}, "
            f"ops={self.ops}, samples={self.n_samples}, "
            f"mean_ipc={self.mean_ipc:.3f})"
        )
