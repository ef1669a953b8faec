"""SimPoint: offline BBV clustering with one large sample per phase.

The SimPoint system (Sherwood et al., ASPLOS'02; SimPoint 3.0) gathers one
BBV per fixed interval over the whole execution, clusters them with
k-means, detail-simulates the interval closest to each cluster centroid,
and estimates performance as the cluster-weighted sum.

Following the paper's own methodology ("The SimPoints methodology was
tested by performing an off-line clustering of the reduced BBV data from
PGSS simulation"), clustering operates on the reduced 32-entry BBVs.  The
profiling pass can reuse a pre-collected :class:`ReferenceTrace` (the
default, since the trace also provides each interval's detailed IPC), or
run the two passes live on a fresh engine.  Both live passes are
expressed as sampling-session plans: a profile-only plan for the BBV
pass, and :func:`~repro.sampling.session.measure_intervals` for the
representatives, each simulated whole in detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..signals import BbvTracker, ReducedBbvHash
from ..clustering import KMeansResult, choose_k, kmeans
from ..cpu import Mode, ModeAccounting, SimulationEngine
from ..errors import ConfigurationError, SamplingError
from ..events import EventBus
from ..program import Program
from ..stats.estimators import stratified_ratio_ipc
from .base import SamplingResult, SamplingTechnique, final_result, ops_label
from .full import WINDOWS_PER_CHUNK, ReferenceTrace
from .session import ModeSegment, SamplingSession, SegmentRole, measure_intervals

__all__ = ["SimPointConfig", "SimPoint"]


@dataclass(frozen=True)
class SimPointConfig:
    """SimPoint parameters.

    Attributes:
        interval_ops: BBV interval length (paper sweeps 1M/10M/100M).
        n_clusters: k for k-means (paper sweeps 5/10/20 plus extras), or
            ``None`` to pick k by BIC up to ``max_k`` — the SimPoint 3.0
            default behaviour.
        max_k: BIC search ceiling when ``n_clusters`` is ``None``.
        n_restarts: k-means restarts.
        seed: clustering RNG seed.
        hash_seed: seed of the reduced-BBV hash (must match the trace's).
    """

    interval_ops: int
    n_clusters: Optional[int] = None
    max_k: int = 20
    n_restarts: int = 5
    seed: int = 0
    hash_seed: int = 12345

    def __post_init__(self) -> None:
        if self.interval_ops <= 0:
            raise ConfigurationError("interval_ops must be positive")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ConfigurationError("n_clusters must be at least 1")
        if self.max_k < 1:
            raise ConfigurationError("max_k must be at least 1")

    @property
    def label(self) -> str:
        """Short config label, e.g. ``"10x80k"`` (``"bicNx80k"`` for BIC)."""
        k = self.n_clusters if self.n_clusters is not None else f"bic{self.max_k}"
        return f"{k}x{ops_label(self.interval_ops)}"


class SimPoint(SamplingTechnique):
    """Offline clustering of interval BBVs; one representative per cluster."""

    name = "SimPoint"
    uses_trace = True
    config: SimPointConfig

    def profile_intervals(
        self, program: Program, bus: Optional[EventBus] = None
    ) -> ReferenceTrace:
        """Live profiling pass: per-interval raw BBVs via fast-forwarding.

        Cycle columns are zero — profiling is purely functional, exactly as
        in the real tool; use :meth:`run` with a reference trace when
        interval IPCs are needed without a live detail pass.
        """
        cfg = self.config
        tracker = BbvTracker(ReducedBbvHash(seed=cfg.hash_seed))
        engine = SimulationEngine(program, machine=self.machine, signal_tracker=tracker)
        session = SamplingSession(engine, bus=bus)
        ops_list: List[int] = []
        bbv_list: List[Optional[np.ndarray]] = []
        segment = ModeSegment(Mode.FUNC_FAST, cfg.interval_ops, role=SegmentRole.PROFILE)
        while not engine.exhausted:
            windows = session.run_windows(segment, WINDOWS_PER_CHUNK)
            if not windows:
                break
            for outcome, vector in windows:
                ops_list.append(outcome.run.ops)
                bbv_list.append(vector)
        return ReferenceTrace(
            program=program.name,
            window_ops_target=cfg.interval_ops,
            ops=np.array(ops_list, dtype=np.int64),
            cycles=np.zeros(len(ops_list), dtype=np.int64),
            bbvs=np.array(bbv_list, dtype=np.float64),
        )

    def simulation_points(
        self, intervals: ReferenceTrace
    ) -> Tuple[KMeansResult, np.ndarray]:
        """Cluster *intervals* and pick one representative per cluster.

        Chooses k (``n_clusters``, or BIC up to ``max_k`` — the SimPoint
        3.0 default), runs k-means over the normalised interval BBVs, and
        returns the clustering with each cluster's representative interval
        index (the member closest to its centroid; -1 for an empty
        cluster).
        """
        cfg = self.config
        n = intervals.n_windows
        points = intervals.normalized_bbvs()
        if cfg.n_clusters is not None:
            n_clusters = cfg.n_clusters
            if n < n_clusters:
                raise SamplingError(
                    f"{n} intervals cannot support {n_clusters} clusters"
                )
        else:
            n_clusters, _scores = choose_k(
                points,
                max_k=min(cfg.max_k, n - 1) if n > 1 else 1,
                n_restarts=cfg.n_restarts,
                seed=cfg.seed,
            )
        clustering = kmeans(
            points, n_clusters, n_restarts=cfg.n_restarts, seed=cfg.seed
        )
        return clustering, clustering.representative_indices()

    def run(
        self,
        program: Program,
        trace: Optional[ReferenceTrace] = None,
        bus: Optional[EventBus] = None,
        **kwargs: Any,
    ) -> SamplingResult:
        """Cluster interval BBVs and estimate IPC from representatives.

        Args:
            program: the workload.
            trace: optional pre-collected reference trace; when given, both
                the interval BBVs and the representatives' IPCs come from
                it (its full-detail pass subsumes SimPoint's detail phase).
                When omitted, both passes run live.
            bus: optional event bus observing the live passes.
        """
        cfg = self.config
        if trace is not None:
            intervals = trace.to_period(cfg.interval_ops)
            have_ipc = True
        else:
            intervals = self.profile_intervals(program, bus=bus)
            have_ipc = False
        n = intervals.n_windows
        clustering, reps = self.simulation_points(intervals)
        n_clusters = clustering.k
        sizes = clustering.cluster_sizes()

        accounting = ModeAccounting()
        if have_ipc:
            rep_counts = {
                int(reps[c]): (
                    int(intervals.ops[reps[c]]),
                    int(intervals.cycles[reps[c]]),
                )
                for c in range(n_clusters)
                if reps[c] >= 0
            }
        else:
            # Each representative runs whole in DETAIL, after functional
            # warming up to it.
            rep_counts, accounting = measure_intervals(
                program,
                self.machine,
                [int(r) for r in reps if r >= 0],
                cfg.interval_ops,
                warmup_ops=0,
                detail_ops=cfg.interval_ops,
                bus=bus,
            )

        # SimPoint combines per-cluster CPI weighted by cluster size; with
        # equal-length intervals this is the exact ratio estimator.
        ops_per_cluster: Dict[int, int] = {}
        samples_per_cluster: Dict[int, List[Tuple[int, int]]] = {}
        for c in range(n_clusters):
            if reps[c] < 0 or sizes[c] == 0:
                continue
            ops_per_cluster[c] = int(intervals.ops[clustering.labels == c].sum())
            rep_index = int(reps[c])
            if rep_index in rep_counts:
                samples_per_cluster[c] = [rep_counts[rep_index]]
        estimate = stratified_ratio_ipc(ops_per_cluster, samples_per_cluster)

        # The cost is the representatives' nominal length, whether they
        # were read from a trace or measured live.
        n_points = len(samples_per_cluster)
        detailed_ops = n_points * cfg.interval_ops
        return final_result(
            self.name,
            program.name,
            estimate.ipc,
            n_points,
            accounting,
            bus,
            detailed_ops=detailed_ops,
            total_ops=intervals.total_ops + detailed_ops,
            extras={
                "config": cfg.label,
                "n_intervals": n,
                "n_clusters": n_clusters,
                "cluster_sizes": sizes.tolist(),
                "weights": {int(k): v for k, v in estimate.weights.items()},
                "inertia": clustering.inertia,
            },
        )
