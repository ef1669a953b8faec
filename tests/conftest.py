"""Shared fixtures for the test suite.

Everything runs at ``Scale.QUICK`` (or smaller ad-hoc programs) so the
whole suite stays fast; the benchmark harness exercises the scaled
operating point.
"""

from __future__ import annotations

import pytest

from repro import (
    Behavior,
    BlockBuilder,
    PatternKind,
    Program,
    Scale,
    Segment,
    get_workload,
)
from repro.program.stream import BlockRun


@pytest.fixture(scope="session")
def quick_scale():
    """The miniature scale configuration."""
    return Scale.QUICK


@pytest.fixture()
def builder():
    """A fresh, seeded block builder."""
    return BlockBuilder(seed=1234)


def make_two_phase_program(
    ops_per_phase: int = 40_000, seed: int = 5
) -> Program:
    """A tiny two-behaviour program with well-separated IPC levels.

    Phase ``fast`` is compute-bound (L1-resident, shallow dependences);
    phase ``slow`` chases pointers through 16 MB.  Used all over the suite
    as a controllable ground truth.
    """
    b = BlockBuilder(seed=seed)
    fast_block = b.build(
        ops=24,
        mix="int_light",
        dep_density=0.1,
        mem_patterns=[b.pattern(PatternKind.REUSE, 8 * 1024, stride=8)],
    )
    slow_block = b.build(
        ops=12,
        mix="int",
        dep_density=0.4,
        mem_patterns=[b.pattern(PatternKind.CHASE, 16 * 1024 * 1024)],
    )
    behaviors = [
        Behavior("fast", [(fast_block, (50, 5))]),
        Behavior("slow", [(slow_block, (40, 4))]),
    ]
    script = [
        Segment("fast", ops_per_phase),
        Segment("slow", ops_per_phase),
        Segment("fast", ops_per_phase),
        Segment("slow", ops_per_phase),
    ]
    return Program("two_phase", [fast_block, slow_block], behaviors, script, seed=seed)


def record_event(tracker, block, taken, k=0):
    """Feed *tracker* one dynamic execution of *block*: a one-iteration
    batch through ``record_batch``, the trackers' only entry point."""
    tracker.record_batch([BlockRun(block, 1, k, ends_entry=not taken)])


@pytest.fixture()
def two_phase_program():
    """The canonical two-phase test program."""
    return make_two_phase_program()


@pytest.fixture(scope="session")
def quick_gzip():
    """The 164.gzip analogue at QUICK scale (session-cached build)."""
    return get_workload("164.gzip", Scale.QUICK)
