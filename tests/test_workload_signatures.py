"""Per-workload qualitative-signature regressions.

Each SPEC2000 analogue was calibrated to the character the paper
attributes to it (DESIGN.md's substitution table).  These tests pin those
signatures at the QUICK scale so workload edits cannot silently break the
figures' premises.
"""

import numpy as np
import pytest

from repro import BbvTracker, Scale, get_workload
from repro.sampling import collect_reference_trace


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in (
        "164.gzip",
        "177.mesa",
        "179.art",
        "181.mcf",
        "256.bzip2",
        "300.twolf",
        "168.wupwise",
    ):
        program = get_workload(name, Scale.QUICK)
        out[name] = collect_reference_trace(program, Scale.QUICK.trace_window)
    return out


class TestIpcSignatures:
    def test_art_mcf_are_the_slowest(self, traces):
        ipcs = {n: t.true_ipc for n, t in traces.items()}
        slowest_two = sorted(ipcs, key=ipcs.get)[:3]
        assert "179.art" in slowest_two
        assert "181.mcf" in slowest_two

    def test_mesa_is_stable(self, traces):
        """177.mesa: one dominant, very stable phase — clearly lower cv
        than the strongly phased benchmarks (measured on 4-window
        aggregates so single-block noise does not dominate at QUICK
        scale)."""
        cv = lambda t: float(
            t.aggregate(4).ipcs.std() / t.aggregate(4).ipcs.mean()
        )
        assert cv(traces["177.mesa"]) < 0.35
        assert cv(traces["177.mesa"]) < 0.6 * cv(traces["256.bzip2"])

    def test_bzip2_has_large_swings(self, traces):
        t = traces["256.bzip2"].aggregate(4)
        assert float(t.ipcs.max()) > 3 * float(t.ipcs.min())

    def test_gzip_variation_averages_out(self, traces):
        """164.gzip: the Fig.-2 subject — fine-grained variation shrinks
        markedly under coarse aggregation."""
        fine = traces["164.gzip"].aggregate(4)
        coarse = traces["164.gzip"].aggregate(32)
        fine_rel = float(fine.ipcs.std() / fine.ipcs.mean())
        coarse_rel = float(coarse.ipcs.std() / coarse.ipcs.mean())
        assert coarse_rel < fine_rel * 0.7

    def test_wupwise_bimodal(self, traces):
        from repro.stats import bimodality_coefficient

        assert bimodality_coefficient(traces["168.wupwise"].ipcs) > 0.33


class TestMicroPhaseSignatures:
    @pytest.mark.parametrize("name", ["179.art", "181.mcf"])
    def test_micro_oscillation_below_period(self, name, traces):
        """art/mcf oscillate at a scale below the shortest BBV period, so
        window IPCs alternate rather than trend."""
        ipcs = traces[name].ipcs
        # Lag-1 autocorrelation of the fine IPC series is weak-to-negative
        # relative to a slowly-varying workload like mesa.
        def lag1(series):
            a = np.asarray(series, dtype=np.float64)
            a = a - a.mean()
            denom = float((a * a).sum())
            return float((a[:-1] * a[1:]).sum() / denom) if denom else 0.0

        assert lag1(ipcs) < lag1(traces["177.mesa"].ipcs)


class TestBbvSignatures:
    def test_phased_workloads_have_distinct_bbvs(self, traces):
        """gzip's behaviours produce separable BBVs; mesa's single phase
        produces near-identical ones."""
        from repro.signals import angle_between

        def spread(trace):
            vecs = trace.aggregate(4).normalized_bbvs()
            step = max(len(vecs) // 30, 1)
            sample = vecs[::step]
            angles = [
                angle_between(sample[i], sample[j])
                for i in range(len(sample))
                for j in range(i + 1, len(sample))
            ]
            return float(np.mean(angles))

        assert spread(traces["164.gzip"]) > spread(traces["177.mesa"])

    def test_every_block_hits_some_bucket(self, traces):
        tracker = BbvTracker()
        program = get_workload("164.gzip", Scale.QUICK)
        buckets = {tracker.bucket_for(block) for block in program.blocks}
        assert len(buckets) >= 2  # the hash separates this program's blocks
