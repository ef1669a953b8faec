"""Tests for the SPEC2000-analogue workload suite and its calibration."""

import pytest

from repro import (
    ConfigurationError,
    Mode,
    Scale,
    SimulationEngine,
    WORKLOAD_NAMES,
    get_workload,
    wupwise_analogue,
)


class TestRegistry:
    def test_ten_paper_benchmarks(self):
        assert len(WORKLOAD_NAMES) == 10
        assert WORKLOAD_NAMES[0] == "164.gzip"
        assert WORKLOAD_NAMES[-1] == "300.twolf"

    def test_paper_suite_order(self):
        suite = [get_workload(name, Scale.QUICK) for name in WORKLOAD_NAMES]
        assert [p.name for p in suite] == list(WORKLOAD_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("999.nope", Scale.QUICK)

    def test_wupwise_available(self):
        prog = get_workload("168.wupwise", Scale.QUICK)
        assert prog.name == "168.wupwise"
        assert wupwise_analogue(Scale.QUICK).name == "168.wupwise"

    def test_builders_are_deterministic(self):
        p1 = get_workload("164.gzip", Scale.QUICK)
        p2 = get_workload("164.gzip", Scale.QUICK)
        assert [b.address for b in p1.blocks] == [b.address for b in p2.blocks]
        assert [(s.behavior, s.ops) for s in p1.script] == [
            (s.behavior, s.ops) for s in p2.script
        ]

    def test_scale_controls_length(self):
        quick = get_workload("177.mesa", Scale.QUICK)
        assert quick.total_ops == pytest.approx(Scale.QUICK.benchmark_ops, rel=0.15)


class TestStructure:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_workload_builds(self, name):
        prog = get_workload(name, Scale.QUICK)
        assert prog.n_blocks >= 2
        assert len(prog.behaviors) >= 1
        assert prog.total_ops > 0

    def test_micro_phase_benchmarks_have_fine_entries(self):
        """179.art / 181.mcf must oscillate well below the BBV period
        (their Section-5 pathology)."""
        for name in ("179.art", "181.mcf"):
            prog = get_workload(name, Scale.SCALED)
            period = Scale.SCALED.pgss_best_period
            for behavior in prog.behaviors.values():
                cycle_ops = sum(
                    block.n_ops * iters for block, iters, _ in behavior.entries
                )
                assert cycle_ops < period / 4, (name, behavior.name, cycle_ops)

    def test_twolf_has_spike_behaviors(self):
        prog = get_workload("300.twolf", Scale.QUICK)
        assert "spike_hi" in prog.behaviors
        assert "spike_lo" in prog.behaviors
        spike_ops = sum(
            s.ops for s in prog.script if s.behavior.startswith("spike")
        )
        assert spike_ops / prog.total_ops < 0.10

    def test_wupwise_two_behaviors(self):
        prog = get_workload("168.wupwise", Scale.QUICK)
        assert len(prog.behaviors) == 2


class TestCalibration:
    """Coarse IPC-character checks at QUICK scale (full calibration is a
    benchmark concern; these guard against gross regressions)."""

    def _ipc(self, name):
        engine = SimulationEngine(get_workload(name, Scale.QUICK))
        return engine.run_to_end(Mode.DETAIL, chunk_ops=100_000).ipc

    def test_art_and_mcf_very_low_ipc(self):
        assert self._ipc("179.art") < 0.35
        assert self._ipc("181.mcf") < 0.35

    def test_mesa_high_and_gzip_mid(self):
        mesa = self._ipc("177.mesa")
        mcf = self._ipc("181.mcf")
        assert mesa > 1.0
        assert mesa > 4 * mcf

    def test_suite_ipcs_span_a_wide_range(self):
        ipcs = [self._ipc(n) for n in ("164.gzip", "179.art", "253.perlbmk")]
        assert max(ipcs) / min(ipcs) > 4
