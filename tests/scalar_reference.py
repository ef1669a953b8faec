"""The scalar event loop: the reference the batched engine is held to.

:class:`~repro.cpu.SimulationEngine` advances every mode through
run-length batches (``next_events``).  This module keeps the form that
batching replaced, one dynamic basic block at a time:

* :func:`run_scalar` — ``SimulationEngine.run`` as an event loop over
  ``stream.next_event``, with the same validation and accounting, so it
  can drive any engine (multi-core cores included);
* :class:`ScalarEngine` — an engine whose ``run`` (and so ``run_segment``
  and ``run_to_end``) is :func:`run_scalar`, for driving whole sampling
  techniques on the reference path;
* :func:`warm_event` / :func:`detail_event` — one event through the
  functional warmer / the detailed pipeline, with per-access cache and
  predictor calls in program order;
* :func:`warm_data` / :func:`warm_inst`, :func:`data_latency` /
  :func:`inst_latency` and :func:`access_data` / :func:`access_inst` —
  one access through a :class:`~repro.memory.CacheHierarchy`, touching
  it only, returning its latency, or returning an :class:`AccessResult`;
* :func:`recorder` / :func:`record` — one event into a signal tracker;
* :func:`per_window_trace` — the windowed recorders
  (``collect_reference_trace``, ``SimPoint.profile_intervals``) as one
  ``run_segment`` per window, each followed by a raw BBV drain;
* :func:`assert_same_machine` — the comparison the suites apply: cache
  and predictor state and every counter the modes touch.

The equivalence suites, the hypothesis gates and the engine-rate
bench's scalar arm compare against it.  It imports only ``repro``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional

import numpy as np

from repro import BbvTracker, ConcatenatedSignal, MavTracker, SimulationEngine
from repro.cpu.engine import Mode, ModeRun
from repro.errors import SimulationError
from repro.events import EventBus
from repro.memory import CacheHierarchy
from repro.sampling.full import ReferenceTrace
from repro.sampling.session import ModeSegment, SamplingSession, SegmentRole
from repro.program.block import BasicBlock
from repro.program.stream import BlockEvent

__all__ = [
    "AccessResult",
    "ScalarEngine",
    "access_data",
    "access_inst",
    "assert_same_machine",
    "data_latency",
    "detail_event",
    "inst_latency",
    "per_window_trace",
    "record",
    "recorder",
    "run_scalar",
    "warm_data",
    "warm_event",
    "warm_inst",
]

#: Knuth multiplicative-hash constant of the MAV bucket function.
_HASH_MULT = 2654435761
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Attributes:
        latency: total cycles to satisfy the access.
        level: 1 for an L1 hit, 2 for an L2 hit, 3 for main memory.
    """

    latency: int
    level: int


def data_latency(hierarchy: CacheHierarchy, addr: int, is_write: bool = False) -> int:
    """Access the data side; return total latency in cycles."""
    addr ^= hierarchy.address_salt
    lat = hierarchy.l1d.hit_latency
    if hierarchy.l1d.access(addr, is_write):
        return lat
    lat += hierarchy.l2.hit_latency
    if hierarchy.l2.access(addr, is_write):
        return lat
    hierarchy.memory_accesses += 1
    return lat + hierarchy.machine.memory_latency


def inst_latency(hierarchy: CacheHierarchy, addr: int) -> int:
    """Access the instruction side; return total latency in cycles."""
    addr ^= hierarchy.address_salt
    lat = hierarchy.l1i.hit_latency
    if hierarchy.l1i.access(addr):
        return lat
    lat += hierarchy.l2.hit_latency
    if hierarchy.l2.access(addr):
        return lat
    hierarchy.memory_accesses += 1
    return lat + hierarchy.machine.memory_latency


def warm_data(hierarchy: CacheHierarchy, addr: int, is_write: bool = False) -> None:
    """Touch the data side without caring about latency (warming mode)."""
    addr ^= hierarchy.address_salt
    if not hierarchy.l1d.access(addr, is_write):
        if not hierarchy.l2.access(addr, is_write):
            hierarchy.memory_accesses += 1


def warm_inst(hierarchy: CacheHierarchy, addr: int) -> None:
    """Touch the instruction side without caring about latency."""
    addr ^= hierarchy.address_salt
    if not hierarchy.l1i.access(addr):
        if not hierarchy.l2.access(addr):
            hierarchy.memory_accesses += 1


def access_data(
    hierarchy: CacheHierarchy, addr: int, is_write: bool = False
) -> AccessResult:
    """Access the data side; return latency and the servicing level."""
    lat = data_latency(hierarchy, addr, is_write)
    return AccessResult(lat, _level(hierarchy, hierarchy.l1d.hit_latency, lat))


def access_inst(hierarchy: CacheHierarchy, addr: int) -> AccessResult:
    """Access the instruction side; return latency and servicing level."""
    lat = inst_latency(hierarchy, addr)
    return AccessResult(lat, _level(hierarchy, hierarchy.l1i.hit_latency, lat))


def _level(hierarchy: CacheHierarchy, l1_hit: int, latency: int) -> int:
    """The level that served an access of *latency* cycles."""
    if latency == l1_hit:
        return 1
    if latency == l1_hit + hierarchy.l2.hit_latency:
        return 2
    return 3


def warm_event(warmer: Any, event: BlockEvent) -> None:
    """Update caches and branch predictor for one block execution."""
    block, taken, k = event
    hierarchy = warmer.hierarchy
    for line in block.inst_lines:
        warm_inst(hierarchy, line)
    patterns = block.mem_patterns
    for pat in patterns:
        warm_data(hierarchy, pat.address(k), pat.is_write)
    warmer.predictor.predict_update(block.branch_address, taken)


def detail_event(pipeline: Any, event: BlockEvent) -> None:
    """Run one dynamic basic-block execution through the pipeline."""
    block, taken, k = event
    hierarchy = pipeline.hierarchy

    # Architectural phase.  Cache and predictor transitions never read
    # the clock, so running them up front (in program order: fetch, data
    # accesses, terminating branch) leaves state byte-identical to
    # issue-time interleaving while decoupling timing from them.
    fetch_stall = 0
    l1i_hit = hierarchy.l1i.hit_latency
    for line in block.inst_lines:
        extra = inst_latency(hierarchy, line) - l1i_hit
        if extra > 0:
            fetch_stall += extra

    lats: List[int] = []
    if block.mem_positions:
        patterns = block.mem_patterns
        mem_idx = block.mem_idx
        for pos in block.mem_positions:
            pat = patterns[mem_idx[pos]]
            lats.append(data_latency(hierarchy, pat.address(k), pat.is_write))

    correct = pipeline.predictor.predict_update(block.branch_address, taken)

    pipeline._issue_timing(block, lats, fetch_stall, correct)


def _record_bbv(tracker: BbvTracker, block: BasicBlock, taken: bool, k: int = 0) -> None:
    """Observe one dynamic basic-block execution.

    Ops accumulate in a run counter; when the block's terminator is
    taken, the run (including this block) is credited to the branch's
    bucket, matching the Fig. 4 hardware.  The execution count *k* is
    ignored: the BBV is a pure control-flow signal.
    """
    tracker.total_ops += block.n_ops
    if taken:
        tracker._registers[tracker.bucket_for(block)] += tracker._run_ops + block.n_ops
        tracker._run_ops = 0
    else:
        tracker._run_ops += block.n_ops


def _mav_bucket(tracker: MavTracker, unit: int) -> int:
    """Bucket of one line/page number (scalar multiplicative hash)."""
    return (unit * _HASH_MULT & _MASK32) % tracker.n_buckets


def _record_mav(tracker: MavTracker, block: BasicBlock, taken: bool, k: int = 0) -> None:
    """Observe one dynamic basic-block execution.

    Every memory instruction in *block* generates its *k*-th address;
    the access is counted once at line granularity and once at page
    granularity.  The branch outcome is irrelevant to this signal.
    """
    tracker.total_ops += block.n_ops
    patterns = block.mem_patterns
    if not patterns:
        return
    registers = tracker._registers
    n_buckets = tracker.n_buckets
    for pattern in patterns:
        address = pattern.address(k)
        registers[_mav_bucket(tracker, address >> tracker.line_bits)] += 1.0
        registers[n_buckets + _mav_bucket(tracker, address >> tracker.page_bits)] += 1.0
    tracker.total_accesses += len(patterns)


def recorder(tracker: Any) -> Callable[[BasicBlock, bool, int], None]:
    """The one-event ``record(block, taken, k)`` of *tracker*, resolved
    once so a loop over events pays no per-event dispatch."""
    if isinstance(tracker, BbvTracker):
        return partial(_record_bbv, tracker)
    if isinstance(tracker, MavTracker):
        return partial(_record_mav, tracker)
    if isinstance(tracker, ConcatenatedSignal):
        children = [recorder(child) for child in tracker.trackers]

        def fan_out(block: BasicBlock, taken: bool, k: int = 0) -> None:
            for child in children:
                child(block, taken, k)

        return fan_out
    raise TypeError(f"no scalar reference for {type(tracker).__name__}")


def record(tracker: Any, block: BasicBlock, taken: bool, k: int = 0) -> None:
    """Observe one dynamic execution of *block* in *tracker*."""
    recorder(tracker)(block, taken, k)


def run_scalar(engine: SimulationEngine, mode: Mode, n_ops: int) -> ModeRun:
    """``engine.run(mode, n_ops)`` as the scalar event loop.

    Stops early (without error) if the program ends.  Returns the ops
    actually consumed and, for detailed modes, the cycles elapsed, and
    charges them to ``engine.accounting`` like ``SimulationEngine.run``.
    """
    if n_ops < 0:
        raise SimulationError("n_ops must be non-negative")
    tracker = engine.signal_tracker
    cycles = 0
    start_cycle = engine.pipeline.cycle
    start_time = time.perf_counter()

    execute: Optional[Callable[[BlockEvent], None]]
    if mode.is_detailed:
        execute = partial(detail_event, engine.pipeline)
    elif mode is Mode.FUNC_WARM:
        execute = partial(warm_event, engine.warmer)
    else:
        execute = None
    next_event = engine.stream.next_event
    record_event = recorder(tracker) if tracker is not None else None
    ops = 0
    while ops < n_ops:
        event = next_event()
        if event is None:
            break
        if execute is not None:
            execute(event)
        if record_event is not None:
            record_event(event.block, event.taken, event.k)
        ops += event.block.n_ops
    if mode.is_detailed and ops:
        cycles = engine.pipeline.cycle - start_cycle

    elapsed = time.perf_counter() - start_time
    engine.accounting.ops[mode] += ops
    engine.accounting.seconds[mode] += elapsed
    return ModeRun(mode=mode, ops=ops, cycles=cycles, exhausted=engine.stream.exhausted)


def per_window_trace(
    engine: SimulationEngine,
    mode: Mode,
    window_ops: int,
    bus: Optional[EventBus] = None,
) -> ReferenceTrace:
    """Record *engine*'s program window by window: one ``run_segment``
    of a *window_ops* PROFILE segment in *mode* per window, then a raw
    drain of the engine's BBV tracker, until the stream ends.

    ``collect_reference_trace`` is this loop in DETAIL, and
    ``SimPoint.profile_intervals`` in FUNC_FAST (its cycles are zero).
    """
    session = SamplingSession(engine, bus=bus)
    segment = ModeSegment(mode, window_ops, role=SegmentRole.PROFILE)
    ops: List[int] = []
    cycles: List[int] = []
    bbvs: List[np.ndarray] = []
    while not engine.exhausted:
        outcome = session.run_segment(segment)
        if outcome.run.ops == 0:
            break
        ops.append(outcome.run.ops)
        cycles.append(outcome.run.cycles)
        bbvs.append(engine.signal_tracker.take_vector(normalize=False))
    return ReferenceTrace(
        engine.program.name,
        window_ops,
        np.array(ops, dtype=np.int64),
        np.array(cycles, dtype=np.int64),
        np.array(bbvs, dtype=np.float64),
    )


class ScalarEngine(SimulationEngine):
    """A :class:`~repro.cpu.SimulationEngine` that runs every mode through
    :func:`run_scalar`."""

    def run(self, mode: Mode, n_ops: int) -> ModeRun:
        return run_scalar(self, mode, n_ops)


def assert_same_machine(one: SimulationEngine, other: SimulationEngine) -> None:
    """Machine state *and* every counter the modes touch are equal: a
    wrong bulk credit leaves snapshots equal but a counter off."""
    h1, h2 = one.hierarchy, other.hierarchy
    assert h1.snapshot() == h2.snapshot()
    assert h1.stats_summary() == h2.stats_summary()
    assert h1.memory_accesses == h2.memory_accesses
    for c1, c2 in zip((h1.l1i, h1.l1d, h1.l2), (h2.l1i, h2.l1d, h2.l2)):
        assert c1.stats.writebacks == c2.stats.writebacks
    assert one.predictor.snapshot() == other.predictor.snapshot()
    s1, s2 = one.predictor.stats, other.predictor.stats
    assert (s1.predictions, s1.mispredictions) == (s2.predictions, s2.mispredictions)
