"""Common interface and result type for sampling techniques."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..config import DEFAULT_MACHINE, MachineConfig
from ..cpu.engine import ModeAccounting
from ..errors import EstimateError
from ..events import EstimateUpdated, EventBus
from ..program import Program
from ..stats.ci import ConfidenceInterval

__all__ = ["SamplingResult", "SamplingTechnique", "final_result", "ops_label"]


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

    def to_doc(self) -> Dict[str, Any]:
        """Every deterministic field as plain JSON values.

        The one serialised form of a result: the experiment cache stores
        it and the golden fixtures canonicalise it.  Per-mode ops are
        keyed by ``Mode.value``; ``accounting.seconds`` (wall clock) is
        the single field left out.
        """
        ci = self.ci
        return {
            "technique": self.technique,
            "program": self.program,
            "ipc_estimate": float(self.ipc_estimate),
            "detailed_ops": int(self.detailed_ops),
            "total_ops": int(self.total_ops),
            "n_samples": int(self.n_samples),
            "accounting_ops": {
                mode.value: int(ops) for mode, ops in self.accounting.ops.items()
            },
            "ci": None
            if ci is None
            else {
                "mean": float(ci.mean),
                "half_width": float(ci.half_width),
                "confidence": float(ci.confidence),
                "n": int(ci.n),
            },
            "extras": _plain(self.extras),
        }

    def __repr__(self) -> str:
        return (
            f"SamplingResult({self.technique} on {self.program}: "
            f"ipc={self.ipc_estimate:.4f}, detailed_ops={self.detailed_ops}, "
            f"samples={self.n_samples})"
        )


def _plain(value: Any) -> Any:
    """*value* as JSON values: numpy scalars unwrapped, tuples as lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def final_result(
    technique: str,
    program: str,
    ipc: float,
    n_samples: int,
    accounting: ModeAccounting,
    bus: Optional[EventBus],
    *,
    detailed_ops: Optional[int] = None,
    total_ops: Optional[int] = None,
    ci: Optional[ConfidenceInterval] = None,
    extras: Optional[Dict[str, Any]] = None,
) -> SamplingResult:
    """Publish a run's final estimate and build its :class:`SamplingResult`.

    The one place a technique reports its outcome: the final
    :class:`~repro.events.EstimateUpdated` goes on *bus* (when given) and
    the result carries the same ``ipc`` and ``n_samples``.  Detailed and
    total ops default to *accounting*'s; a technique whose cost is not
    what its engines executed (TurboSMARTS' consumed samples, SimPoint's
    representatives read from a reference trace) passes its own.
    """
    if bus is not None:
        bus.emit(
            EstimateUpdated(
                technique=technique, ipc=ipc, n_samples=n_samples, final=True
            )
        )
    return SamplingResult(
        technique=technique,
        program=program,
        ipc_estimate=ipc,
        detailed_ops=(
            accounting.detailed_ops if detailed_ops is None else detailed_ops
        ),
        total_ops=accounting.total_ops if total_ops is None else total_ops,
        n_samples=n_samples,
        accounting=accounting,
        ci=ci,
        extras=extras if extras is not None else {},
    )


class SamplingTechnique(abc.ABC):
    """Base class: configure once, run on any program.

    The base owns what every technique shares: its ``config`` dataclass
    and the ``machine`` it simulates (subclasses only narrow the
    ``config`` annotation), and whether :meth:`run` reads the
    benchmark's :class:`~repro.sampling.ReferenceTrace`
    (:attr:`uses_trace`).  Every run ends in :func:`final_result`.
    ``run`` is abstract, so a technique that forgets to override it
    fails at class definition rather than mid-experiment.
    """

    #: Human-readable technique name, set by subclasses.
    name: str = "base"

    #: ``run`` takes ``trace=`` (the benchmark's reference trace) and
    #: reads interval BBVs and IPCs from it; the experiment harness
    #: passes the trace exactly when this is set.
    uses_trace: bool = False

    def __init__(
        self, config: Any = None, machine: MachineConfig = DEFAULT_MACHINE
    ) -> None:
        self.config = config
        self.machine = machine

    @abc.abstractmethod
    def run(self, program: Program, **kwargs: Any) -> SamplingResult:
        """Apply the technique to *program* and return its result."""
