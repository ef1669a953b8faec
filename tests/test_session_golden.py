"""Golden-equivalence suite for the sampling-session kernel.

The refactor that moved every technique onto
:mod:`repro.sampling.session` promised *byte-identical* results: the
exact sequence of engine mode runs — and therefore every op count,
sample offset, estimate bit and cache key — must match the pre-refactor
implementation.  ``tests/golden/*.json`` pins that pre-refactor output
(floats serialised via ``float.hex()``); this suite re-runs the full
technique matrix and compares.

Regenerate fixtures (only when an *intentional* behaviour change lands,
never to paper over a diff)::

    PYTHONPATH=src python tests/_golden.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.experiments.cache import CACHE_VERSION

from _golden import WORKLOADS, cache_keys, run_matrix, signal_matrix

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def matrix():
    return run_matrix()


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_results_byte_identical(self, matrix, workload):
        fixture = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
        got = matrix[workload]
        assert sorted(got) == sorted(fixture)
        for technique in fixture:
            assert got[technique] == fixture[technique], (
                f"{technique} on {workload} diverged from the pre-refactor "
                f"golden output"
            )

    def test_cache_version_unchanged(self):
        # Pinned so that a change to what the cache stores (version 8:
        # ``SamplingResult.to_doc()``, with per-mode ops and the CI;
        # version 9: RankedSet's and Stratified's per-mode ops once their
        # measurement passes replay from an outcome record) moves the
        # version, and with it every cache key, on purpose.
        assert CACHE_VERSION == 9

    def test_cache_keys_byte_identical(self):
        fixture = json.loads((GOLDEN_DIR / "cache_keys.json").read_text())
        assert cache_keys() == fixture


class TestSignalGolden:
    """Pin PGSS under every phase signal on the adversarial workloads."""

    def test_signal_results_byte_identical(self):
        fixture = json.loads((GOLDEN_DIR / "signals.json").read_text())
        got = signal_matrix()
        assert sorted(got) == sorted(fixture)
        for workload in fixture:
            for signal in fixture[workload]:
                assert got[workload][signal] == fixture[workload][signal], (
                    f"PGSS/{signal} on {workload} diverged from the "
                    f"golden phase-signal output"
                )
