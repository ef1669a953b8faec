"""Statistics for sampled simulation.

Provides the estimators and confidence machinery the sampling techniques
depend on: normal/Student-t confidence intervals (SMARTS and TurboSMARTS,
paper Section 2.2), the stratified per-phase ratio estimator (PGSS-Sim,
Section 3), error metrics for the evaluation figures, and the distribution
diagnostics behind Figure 3's polymodality argument.
"""

from .ci import (
    ConfidenceInterval,
    normal_ci,
    student_t_ci,
    z_value,
    t_value,
    required_samples,
)
from .estimators import StratifiedEstimate, stratified_ratio_ipc
from .errors_metrics import (
    percent_error,
    arithmetic_mean,
    geometric_mean,
)
from .distributions import (
    histogram,
    bimodality_coefficient,
    modality_peaks,
)
from .sampling_theory import (
    population_variance,
    within_stratum_variance,
    stratification_gain,
    required_samples_comparison,
)

__all__ = [
    "ConfidenceInterval",
    "normal_ci",
    "student_t_ci",
    "z_value",
    "t_value",
    "required_samples",
    "StratifiedEstimate",
    "stratified_ratio_ipc",
    "percent_error",
    "arithmetic_mean",
    "geometric_mean",
    "histogram",
    "bimodality_coefficient",
    "modality_peaks",
    "population_variance",
    "within_stratum_variance",
    "stratification_gain",
    "required_samples_comparison",
]
