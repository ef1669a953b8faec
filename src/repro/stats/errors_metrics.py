"""Error metrics used by the evaluation figures.

The paper reports "sampling error as a percent of benchmark IPC" per
benchmark, plus an arithmetic mean (A-Mean) and geometric mean (G-Mean)
column across the suite (Figs. 11 and 12).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import SamplingError

__all__ = ["percent_error", "arithmetic_mean", "geometric_mean"]


def percent_error(estimate: float, truth: float) -> float:
    """Absolute relative error in percent: ``100 * |est - true| / true``."""
    if truth == 0.0:
        raise SamplingError("true value must be non-zero for percent error")
    return 100.0 * abs(estimate - truth) / abs(truth)


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain arithmetic mean (the figures' A-Mean column)."""
    values = list(values)
    if not values:
        raise SamplingError("mean of an empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float], floor: float = 1e-6) -> float:
    """Geometric mean with a small floor (the figures' G-Mean column).

    Zero errors are clamped to *floor* so a single perfect estimate does
    not collapse the G-Mean to zero.
    """
    values = list(values)
    if not values:
        raise SamplingError("mean of an empty sequence")
    log_sum = sum(math.log(max(v, floor)) for v in values)
    return math.exp(log_sum / len(values))
