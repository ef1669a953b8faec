"""PGSS-Sim: Phase-Guided Small-Sample Simulation.

A from-scratch reproduction of Kihm, Strom & Connors, "Phase-Guided
Small-Sample Simulation" (ISPASS 2007): a cycle-accurate in-order CPU
simulator, a synthetic SPEC2000-analogue workload suite, online BBV-based
phase detection, and five sampled-simulation techniques (SMARTS,
TurboSMARTS, SimPoint, Online SimPoint, and the paper's PGSS-Sim).

Quickstart::

    from repro import Scale, get_workload
    from repro.sampling import Pgss, PgssConfig

    program = get_workload("164.gzip", Scale.SCALED)
    result = Pgss(PgssConfig.from_scale(Scale.SCALED)).run(program)
    print(result.ipc_estimate, result.detailed_ops)
"""

from .config import (
    CacheConfig,
    MachineConfig,
    SampleBudget,
    Scale,
    ScaleConfig,
    DEFAULT_MACHINE,
)
from .errors import (
    ClusteringError,
    ConfigurationError,
    EstimateError,
    ProgramError,
    ReproError,
    SamplingError,
    SimulationError,
    SnapshotError,
)
from .program import (
    BasicBlock,
    Behavior,
    BlockBuilder,
    BlockEvent,
    BlockRun,
    MemPattern,
    PatternKind,
    Program,
    ProgramStream,
    Segment,
    WORKLOAD_NAMES,
    get_workload,
    wupwise_analogue,
)
from .cpu import Mode, SimulationEngine
from .signals import (
    PHASE_SIGNALS,
    BbvTracker,
    ConcatenatedSignal,
    MavTracker,
    ReducedBbvHash,
    SignalTracker,
    WideBbvHash,
    angle_between,
    make_signal_tracker,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "CacheConfig",
    "MachineConfig",
    "SampleBudget",
    "Scale",
    "ScaleConfig",
    "DEFAULT_MACHINE",
    # errors
    "ReproError",
    "ConfigurationError",
    "ProgramError",
    "SimulationError",
    "SnapshotError",
    "SamplingError",
    "EstimateError",
    "ClusteringError",
    # program model
    "BasicBlock",
    "Behavior",
    "BlockBuilder",
    "BlockEvent",
    "BlockRun",
    "MemPattern",
    "PatternKind",
    "Program",
    "ProgramStream",
    "Segment",
    "WORKLOAD_NAMES",
    "get_workload",
    "wupwise_analogue",
    # simulator
    "Mode",
    "SimulationEngine",
    # phase signals
    "PHASE_SIGNALS",
    "BbvTracker",
    "ConcatenatedSignal",
    "MavTracker",
    "ReducedBbvHash",
    "SignalTracker",
    "WideBbvHash",
    "angle_between",
    "make_signal_tracker",
]
