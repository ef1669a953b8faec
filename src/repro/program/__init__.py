"""Synthetic program model: basic blocks, behaviors, phase scripts, streams.

The paper evaluates on ten SPEC CPU2000 benchmarks executed by the IMPACT
tool chain.  Neither is available here, so this subpackage provides a
from-scratch substitute: seeded synthetic programs whose *phase structure*
(how IPC and basic-block vectors co-vary over time) is calibrated to the
qualitative character the paper reports per benchmark.  See DESIGN.md
Section 2 for the substitution argument.

A :class:`Program` is a set of :class:`BasicBlock` objects grouped into
:class:`Behavior` loops, sequenced by a phase script of
:class:`Segment` entries.  A :class:`ProgramStream` walks the script and
emits one :class:`BlockEvent` per dynamic basic-block execution; every
simulation mode in :mod:`repro.cpu` consumes that event stream.
"""

from .mem_patterns import MemPattern, PatternKind
from .block import BasicBlock, BlockBuilder
from .behavior import Behavior
from .program import Program, Segment
from .stream import BlockEvent, BlockRun, ProgramStream
from .trace_io import EventTrace, TraceStream, record_trace
from .inspect import DynamicProfile, StaticProfile, dynamic_profile, static_profile
from .synthesis import SynthesisSpec, synthesize_program
from .workloads import (
    ADVERSARIAL_NAMES,
    WORKLOAD_NAMES,
    get_workload,
    wupwise_analogue,
)

__all__ = [
    "MemPattern",
    "PatternKind",
    "BasicBlock",
    "BlockBuilder",
    "Behavior",
    "Program",
    "Segment",
    "BlockEvent",
    "BlockRun",
    "ProgramStream",
    "EventTrace",
    "TraceStream",
    "record_trace",
    "StaticProfile",
    "DynamicProfile",
    "static_profile",
    "dynamic_profile",
    "SynthesisSpec",
    "synthesize_program",
    "ADVERSARIAL_NAMES",
    "WORKLOAD_NAMES",
    "get_workload",
    "wupwise_analogue",
]
