"""Confidence intervals for sample-mean estimates.

SMARTS-style sampling decides when to stop by testing whether the half
width of a confidence interval around the running mean is inside a relative
error bound (paper: 3% at 99.7% confidence).  The z/t critical values are
computed from scratch (inverse error function via Newton iteration on the
complementary error function) so the core library needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ConfidenceInterval",
    "z_value",
    "t_value",
    "normal_ci",
    "student_t_ci",
    "required_samples",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean.

    Attributes:
        mean: sample mean.
        half_width: half the interval width (absolute units).
        confidence: confidence level in (0, 1).
        n: number of samples.
    """

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half width as a fraction of the mean (inf for zero mean)."""
        if self.mean == 0.0:
            return math.inf
        return abs(self.half_width / self.mean)

    def within_relative(self, bound: float) -> bool:
        """True when the interval is inside ``mean * (1 +- bound)``."""
        return self.relative_half_width <= bound


def _inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal via Acklam's rational approximation,
    polished with one Halley step on the complementary error function."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError("p must be in (0, 1)")
    # Acklam coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley refinement using the normal CDF expressed with erfc.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return x


def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value for *confidence*.

    ``z_value(0.997)`` is approximately 2.97 — the "3 sigma" bound of the
    paper's 99.7% TurboSMARTS configuration.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    return _inverse_normal_cdf(0.5 + confidence / 2.0)


def t_value(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value with *dof* degrees of freedom.

    Computed by numerically inverting the regularised incomplete beta
    function via bisection on the t CDF; accurate to ~1e-10, which is far
    tighter than sampling noise.  Above 200 degrees of freedom the normal
    value is used.  The inversion is memoized per ``(confidence, dof)``:
    callers ask for a handful of confidence levels and small sample
    counts, over and over.
    """
    if dof < 1:
        raise ConfigurationError("dof must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    if dof > 200:
        return z_value(confidence)
    return _t_quantile(confidence, dof)


@lru_cache(maxsize=None)
def _t_quantile(confidence: float, dof: int) -> float:
    """The bisection behind :func:`t_value` (validated, ``dof <= 200``)."""
    target = 0.5 + confidence / 2.0
    v = float(dof)

    def t_cdf(x: float) -> float:
        # CDF via the regularised incomplete beta function.
        if x == 0.0:
            return 0.5
        ib = _reg_inc_beta(v / 2.0, 0.5, v / (v + x * x))
        return 1.0 - 0.5 * ib if x > 0 else 0.5 * ib

    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b) via continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log(1.0 - x) - ln_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta function."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def normal_ci(
    samples: Sequence[float], confidence: float = 0.997
) -> ConfidenceInterval:
    """Normal-theory CI around the mean of *samples* (SMARTS style)."""
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    if n < 2:
        return ConfidenceInterval(
            mean=float(arr.mean()) if n else 0.0,
            half_width=math.inf,
            confidence=confidence,
            n=n,
        )
    sd = float(arr.std(ddof=1))
    half = z_value(confidence) * sd / math.sqrt(n)
    return ConfidenceInterval(float(arr.mean()), half, confidence, n)


def student_t_ci(
    samples: Sequence[float], confidence: float = 0.997
) -> ConfidenceInterval:
    """Student-t CI — correct for the small per-phase sample counts of PGSS."""
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    if n < 2:
        return ConfidenceInterval(
            mean=float(arr.mean()) if n else 0.0,
            half_width=math.inf,
            confidence=confidence,
            n=n,
        )
    sd = float(arr.std(ddof=1))
    half = t_value(confidence, n - 1) * sd / math.sqrt(n)
    return ConfidenceInterval(float(arr.mean()), half, confidence, n)


def required_samples(
    cv: float, confidence: float = 0.997, rel_error: float = 0.03
) -> int:
    """SMARTS Eq. (1): samples needed for a relative error at a confidence.

    Args:
        cv: coefficient of variation of the sampled quantity.
        confidence: confidence level.
        rel_error: relative half-width target.
    """
    if cv < 0:
        raise ConfigurationError("cv must be non-negative")
    if rel_error <= 0:
        raise ConfigurationError("rel_error must be positive")
    z = z_value(confidence)
    return max(int(math.ceil((z * cv / rel_error) ** 2)), 1)
