"""Vector operations on phase-signal vectors.

The paper normalises each BBV to an L2 norm of one and compares vectors
with a dot product, yielding the cosine of the angle between them; the
angle (in [0, pi/2] for non-negative vectors) is the distance measure and
thresholds are quoted as fractions of pi.  The same geometry applies to
any non-negative signal vector (MAV, concatenated signals).  Manhattan
distance — what SimPoint uses — is provided for the distance-metric
ablation.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = ["l2_norm", "angle_between", "manhattan_distance"]

ArrayLike = Union[Sequence[float], np.ndarray]


def l2_norm(vector: ArrayLike) -> float:
    """L2 norm of *vector* via a single dot product."""
    arr = np.asarray(vector, dtype=np.float64)
    return float(np.sqrt(np.dot(arr, arr)))


def angle_between(a: ArrayLike, b: ArrayLike) -> float:
    """Angle in radians between *a* and *b*.

    For the non-negative vectors produced by signal tracking the result
    lies in ``[0, pi/2]``; the paper exploits the one-to-one cosine/angle
    correspondence on that interval.  Two zero vectors are defined to be at
    angle 0; a zero vector against a non-zero one is maximally distant
    (``pi/2``).
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    na = l2_norm(va)
    nb = l2_norm(vb)
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return math.pi / 2.0
    cos = float(np.dot(va, vb) / (na * nb))
    # Guard against rounding pushing |cos| past 1.
    if cos > 1.0:
        cos = 1.0
    elif cos < -1.0:
        cos = -1.0
    return math.acos(cos)


def manhattan_distance(a: ArrayLike, b: ArrayLike) -> float:
    """L1 distance between *a* and *b* (SimPoint's native metric)."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    return float(np.abs(va - vb).sum())
