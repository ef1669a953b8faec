"""Common interface and result type for sampling techniques."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import DEFAULT_MACHINE, MachineConfig
from ..cpu.engine import ModeAccounting
from ..errors import EstimateError
from ..program import Program
from ..stats.ci import ConfidenceInterval

__all__ = ["SamplingResult", "SamplingTechnique", "ops_label"]


def ops_label(n: int) -> str:
    """Compact op count for config labels: ``80000`` -> ``"80k"``.

    Exact multiples of a million or a thousand get an ``M`` / ``k``
    suffix; any other count is printed in full, so a label never rounds
    two configurations onto one string.
    """
    if n % 1_000_000 == 0:
        return f"{n // 1_000_000}M"
    if n % 1_000 == 0:
        return f"{n // 1_000}k"
    return str(n)


@dataclass
class SamplingResult:
    """Outcome of applying one sampling technique to one program.

    Attributes:
        technique: technique label (e.g. ``"PGSS"``).
        program: workload name.
        ipc_estimate: the technique's IPC estimate.
        detailed_ops: operations spent in cycle-accurate modes (detailed
            warming + detailed simulation) — the paper's Fig. 12 cost
            metric.
        total_ops: operations across all modes (the program length for
            one-pass techniques, more for multi-pass ones).
        n_samples: number of detailed samples taken (0 where the concept
            does not apply).
        accounting: per-mode op/time accounting from the engine(s).
        ci: confidence interval around the estimate where the technique
            defines one.
        extras: technique-specific diagnostics (phase counts, cluster
            weights, ...).
    """

    technique: str
    program: str
    ipc_estimate: float
    detailed_ops: int
    total_ops: int
    n_samples: int = 0
    accounting: ModeAccounting = field(default_factory=ModeAccounting)
    ci: Optional[ConfidenceInterval] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def percent_error(self, true_ipc: float) -> float:
        """Absolute error vs *true_ipc*, in percent.

        Raises:
            EstimateError: when *true_ipc* is zero — relative error is
                undefined against a zero reference (an all-stall ground
                truth usually means the reference run is itself broken).
        """
        if true_ipc == 0.0:
            raise EstimateError(
                "percent error is undefined for true_ipc == 0; the "
                "reference run measured no retired instructions per cycle"
            )
        return 100.0 * abs(self.ipc_estimate - true_ipc) / abs(true_ipc)

    def __repr__(self) -> str:
        return (
            f"SamplingResult({self.technique} on {self.program}: "
            f"ipc={self.ipc_estimate:.4f}, detailed_ops={self.detailed_ops}, "
            f"samples={self.n_samples})"
        )


class SamplingTechnique(abc.ABC):
    """Base class: configure once, run on any program.

    Subclasses implement :meth:`run`; they may accept a pre-collected
    :class:`~repro.sampling.ReferenceTrace` to reuse profiling work where
    the real technique would rerun functional simulation.  ``run`` is
    abstract, so a technique that forgets to override it fails at class
    definition rather than mid-experiment.
    """

    #: Human-readable technique name, set by subclasses.
    name: str = "base"

    def __init__(self, machine: MachineConfig = DEFAULT_MACHINE) -> None:
        self.machine = machine

    @abc.abstractmethod
    def run(self, program: Program, **kwargs: Any) -> SamplingResult:
        """Apply the technique to *program* and return its result."""
