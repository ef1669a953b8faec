"""Synthetic analogues of the paper's evaluation workloads.

The paper evaluates ten SPEC CPU2000 benchmarks (first reference inputs)
plus a Pentium-4 trace of 168.wupwise for Figure 3.  Real SPEC binaries are
not available here, so each benchmark is replaced by a seeded synthetic
program calibrated to the *qualitative* character the paper attributes to
it — the properties the sampling techniques actually interact with:

========== ==================================================================
164.gzip   alternating compress/decompress phases with fine-grained IPC
           variation inside them (the Fig. 2 subject).
177.mesa   one dominant, very stable rendering phase.
179.art    very low IPC; high-frequency micro-phases "on the order of forty
           to fifty thousand operations" (scaled here) that straddle BBV
           sampling periods.
181.mcf    very low IPC pointer chasing with the same micro-phase pathology.
183.equake periodic rotation of three phases.
188.ammp   long, stable phases.
197.parser many short, irregular phases; hard-to-predict branches.
253.perlbmk several well-separated phases with distinct IPC.
256.bzip2  block-structured phase alternation with large swings.
300.twolf  weak coarse-grain phase behaviour, tiny overall sigma (~0.055),
           but short periodic bursts of abnormally high/low performance at
           fine granularity (the Fig. 10 subject).
168.wupwise bimodal IPC: time spent near two well-separated IPC levels
           (the Fig. 3 subject).
========== ==================================================================

All segment lengths are fractions of ``scale.benchmark_ops`` so the same
builders serve the paper-scale and scaled configurations.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from ..config import Scale, ScaleConfig
from ..errors import ConfigurationError
from .behavior import Behavior
from .block import BasicBlock, BlockBuilder
from .mem_patterns import PatternKind
from .program import Program, Segment

__all__ = [
    "ADVERSARIAL_NAMES",
    "WORKLOAD_NAMES",
    "get_workload",
    "wupwise_analogue",
]

#: The ten benchmarks of the paper's Section 5 evaluation, in figure order.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "164.gzip",
    "177.mesa",
    "179.art",
    "181.mcf",
    "183.equake",
    "188.ammp",
    "197.parser",
    "253.perlbmk",
    "256.bzip2",
    "300.twolf",
)

#: BBV-adversarial workloads (signal-ablation subjects): every phase pair
#: executes byte-identical code via :meth:`BlockBuilder.twin`, so the
#: branch stream — and the BBV — never changes; only the memory-access
#: stream (and hence the IPC) does.  Deliberately *not* part of
#: :data:`WORKLOAD_NAMES`: the paper's Section-5 suite and its cached
#: results stay untouched.
ADVERSARIAL_NAMES: Tuple[str, ...] = (
    "adv.stride_flip",
    "adv.footprint_step",
)

# Footprint sizes chosen relative to the 64 KB L1 / 1 MB L2 machine.
_L1_FIT = 8 * 1024
_L2_FIT = 256 * 1024
_L2_BUST = 8 * 1024 * 1024
_HUGE = 16 * 1024 * 1024


class _WorkloadKit:
    """Shared block recipes used by all the workload builders."""

    def __init__(self, seed: int) -> None:
        self.builder = BlockBuilder(seed=seed)
        self.blocks: List[BasicBlock] = []
        self.rng = random.Random(seed ^ 0x5EED)

    def _add(self, block: BasicBlock) -> BasicBlock:
        self.blocks.append(block)
        return block

    def compute_hi(self, ops: int = 24) -> BasicBlock:
        """High-IPC integer compute: L1-resident, shallow dependences."""
        b = self.builder
        pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=8)]
        return self._add(b.build(ops, mix="int_light", dep_density=0.10, mem_patterns=pats))

    def compute_fp(self, ops: int = 20) -> BasicBlock:
        """Floating-point compute with moderate ILP."""
        b = self.builder
        pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=8)]
        return self._add(b.build(ops, mix="fp", dep_density=0.15, mem_patterns=pats))

    def fp_heavy(self, ops: int = 18) -> BasicBlock:
        """Divide-heavy floating point: long latencies, modest IPC."""
        b = self.builder
        return self._add(b.build(ops, mix="fp_heavy", dep_density=0.50))

    def stream_mid(self, ops: int = 18) -> BasicBlock:
        """Streaming loads over a large array: mid IPC."""
        b = self.builder
        pats = [
            b.pattern(PatternKind.STREAM, _L2_BUST, stride=8),
            b.pattern(PatternKind.REUSE, _L1_FIT, stride=8, is_write=True),
        ]
        return self._add(b.build(ops, mix="mixed", dep_density=0.35, mem_patterns=pats))

    def stream_l2(self, ops: int = 18) -> BasicBlock:
        """Streaming within an L2-resident array: mid-high IPC."""
        b = self.builder
        pats = [b.pattern(PatternKind.STREAM, _L2_FIT, stride=8)]
        return self._add(b.build(ops, mix="mixed", dep_density=0.30, mem_patterns=pats))

    def thrash(self, ops: int = 12, spans: int = 2) -> BasicBlock:
        """Hashed accesses over an L2-busting footprint: very low IPC."""
        b = self.builder
        pats = [b.pattern(PatternKind.RANDOM, _L2_BUST) for _ in range(spans)]
        return self._add(b.build(ops, mix="int", dep_density=0.30, mem_patterns=pats))

    def thrash_l2(self, ops: int = 18) -> BasicBlock:
        """Hashed accesses within an L2-resident footprint: mid-low IPC."""
        b = self.builder
        pats = [b.pattern(PatternKind.RANDOM, 128 * 1024)]
        return self._add(b.build(ops, mix="int", dep_density=0.30, mem_patterns=pats))

    def chase(self, ops: int = 12) -> BasicBlock:
        """Serialised pointer chasing over a huge footprint: very low IPC."""
        b = self.builder
        pats = [
            b.pattern(PatternKind.CHASE, _HUGE),
            b.pattern(PatternKind.RANDOM, _L2_BUST),
        ]
        return self._add(b.build(ops, mix="int", dep_density=0.40, mem_patterns=pats))

    def branchy(self, ops: int = 10, taken_prob: float = 0.4) -> BasicBlock:
        """Data-dependent branching: mispredict-limited IPC."""
        b = self.builder
        pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=8)]
        return self._add(
            b.build(
                ops,
                mix="int",
                dep_density=0.25,
                mem_patterns=pats,
                random_taken_prob=taken_prob,
            )
        )


def _fill_script(
    rng: random.Random,
    pattern: Sequence[Tuple[str, int, int]],
    total_ops: int,
) -> List[Segment]:
    """Repeat *pattern* (behavior, mean_ops, jitter) until *total_ops*."""
    segments: List[Segment] = []
    acc = 0
    while acc < total_ops:
        for name, mean, jitter in pattern:
            ops = rng.randint(mean - jitter, mean + jitter) if jitter else mean
            ops = max(ops, 1_000)
            segments.append(Segment(name, ops))
            acc += ops
            if acc >= total_ops:
                break
    return segments


def _gzip(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=164)
    stream = kit.stream_mid()
    inner = kit.compute_hi()
    table = kit.thrash_l2()
    emit = kit.compute_fp()
    # Compress: alternating memory-bound and compute-bound inner loops at a
    # few-thousand-op period — the fine-grain variation of Fig. 2.
    compress = Behavior(
        "compress",
        [(stream, (80, 20)), (inner, (60, 15)), (table, (90, 25)), (inner, (40, 10))],
    )
    decompress = Behavior("decompress", [(inner, (90, 20)), (emit, (70, 15))])
    io = Behavior("io", [(stream, (120, 30))])
    rng = random.Random(1640)
    script = _fill_script(
        rng,
        [
            ("compress", total // 12, total // 60),
            ("decompress", total // 18, total // 90),
            ("io", total // 48, total // 240),
        ],
        total,
    )
    return Program("164.gzip", kit.blocks, [compress, decompress, io], script, seed=164)


def _mesa(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=177)
    shade = kit.compute_fp(ops=26)
    raster = kit.compute_hi(ops=22)
    texture = kit.stream_l2()
    render = Behavior(
        "render", [(shade, (120, 10)), (raster, (100, 8)), (texture, (30, 4))]
    )
    setup = Behavior("setup", [(kit.stream_mid(), (60, 15))])
    rng = random.Random(1770)
    script = _fill_script(
        rng,
        [
            ("render", total // 5, total // 50),
            ("setup", total // 80, total // 400),
        ],
        total,
    )
    return Program("177.mesa", kit.blocks, [render, setup], script, seed=177)


def _art(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    # Micro-phase period ~1/120 of a 320k-op coarse segment: at the scaled
    # configuration this is ~4-5k ops, matching the paper's 40-50k at 10x.
    kit = _WorkloadKit(seed=179)
    scan_mem = kit.thrash(ops=12, spans=3)
    scan_cmp = kit.compute_fp(ops=24)
    train_mem = kit.thrash(ops=12, spans=2)
    train_cmp = kit.fp_heavy(ops=18)
    # Micro-phase period ~half the shortest Fig.-11 BBV sampling period —
    # the paper's ratio (40-50k-op oscillations vs a 100k-op period), the
    # regime where micro-phases straddle sampling periods and hurt PGSS.
    micro = max(total // 600, 2_000)
    scan = Behavior(
        "scan",
        [(scan_mem, (micro // 24, micro // 96)), (scan_cmp, (micro // 48, micro // 192))],
    )
    train = Behavior(
        "train",
        [(train_mem, (micro // 24, micro // 96)), (train_cmp, (micro // 36, micro // 144))],
    )
    rng = random.Random(1790)
    script = _fill_script(
        rng,
        [("scan", total // 6, total // 30), ("train", total // 8, total // 40)],
        total,
    )
    return Program("179.art", kit.blocks, [scan, train], script, seed=179)


def _mcf(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=181)
    arcs = kit.chase(ops=12)
    nodes = kit.chase(ops=14)
    price = kit.compute_hi(ops=20)
    fix = kit.thrash(ops=12, spans=2)
    # Same micro-phase regime as 179.art (see comment there).
    micro = max(total // 600, 2_000)
    simplex = Behavior(
        "simplex",
        [(arcs, (micro // 24, micro // 96)), (price, (micro // 60, micro // 240))],
    )
    implicit = Behavior(
        "implicit",
        [(nodes, (micro // 28, micro // 112)), (fix, (micro // 36, micro // 144))],
    )
    rng = random.Random(1810)
    script = _fill_script(
        rng,
        [("simplex", total // 7, total // 35), ("implicit", total // 9, total // 45)],
        total,
    )
    return Program("181.mcf", kit.blocks, [simplex, implicit], script, seed=181)


def _equake(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=183)
    smvp = Behavior("smvp", [(kit.stream_mid(), (90, 20)), (kit.compute_fp(), (30, 8))])
    update = Behavior("update", [(kit.compute_fp(ops=24), (110, 20))])
    boundary = Behavior("boundary", [(kit.thrash_l2(), (70, 15))])
    rng = random.Random(1830)
    script = _fill_script(
        rng,
        [
            ("smvp", total // 12, total // 120),
            ("update", total // 16, total // 160),
            ("boundary", total // 32, total // 320),
        ],
        total,
    )
    return Program("183.equake", kit.blocks, [smvp, update, boundary], script, seed=183)


def _ammp(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=188)
    md = Behavior("md", [(kit.compute_fp(ops=24), (130, 25)), (kit.fp_heavy(), (50, 10))])
    neighbor = Behavior(
        "neighbor", [(kit.thrash(spans=2), (80, 20)), (kit.stream_mid(), (60, 15))]
    )
    script = [
        Segment("md", int(total * 0.42)),
        Segment("neighbor", int(total * 0.10)),
        Segment("md", int(total * 0.38)),
        Segment("neighbor", int(total * 0.10)),
    ]
    return Program("188.ammp", kit.blocks, [md, neighbor], script, seed=188)


def _parser(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=197)
    behaviors = [
        Behavior("dict", [(kit.branchy(taken_prob=0.45), (90, 25)), (kit.compute_hi(), (40, 10))]),
        Behavior("link", [(kit.thrash_l2(), (60, 15)), (kit.branchy(taken_prob=0.3), (70, 20))]),
        Behavior("parse", [(kit.compute_hi(ops=20), (100, 25))]),
        Behavior("prune", [(kit.stream_l2(), (80, 20)), (kit.branchy(taken_prob=0.5), (50, 12))]),
        Behavior("post", [(kit.compute_fp(), (90, 20))]),
    ]
    rng = random.Random(1970)
    names = [b.name for b in behaviors]
    segments: List[Segment] = []
    acc = 0
    while acc < total:
        name = rng.choice(names)
        ops = rng.randint(total // 90, total // 25)
        segments.append(Segment(name, ops))
        acc += ops
    return Program("197.parser", kit.blocks, behaviors, segments, seed=197)


def _perlbmk(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=253)
    behaviors = [
        Behavior("interp", [(kit.branchy(taken_prob=0.35), (80, 20)), (kit.compute_hi(), (60, 15))]),
        Behavior("regex", [(kit.compute_hi(ops=26), (120, 30))]),
        Behavior("hash", [(kit.thrash_l2(), (80, 20))]),
        Behavior("string", [(kit.stream_l2(), (100, 25)), (kit.compute_fp(), (40, 10))]),
    ]
    rng = random.Random(2530)
    script = _fill_script(
        rng,
        [
            ("interp", total // 10, total // 50),
            ("regex", total // 14, total // 70),
            ("hash", total // 20, total // 100),
            ("interp", total // 12, total // 60),
            ("string", total // 16, total // 80),
        ],
        total,
    )
    return Program("253.perlbmk", kit.blocks, behaviors, script, seed=253)


def _bzip2(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=256)
    sort = Behavior(
        "sort", [(kit.thrash_l2(), (70, 20)), (kit.stream_l2(), (50, 12))]
    )
    huffman = Behavior("huffman", [(kit.compute_hi(ops=26), (130, 30))])
    rle = Behavior("rle", [(kit.compute_hi(ops=18), (60, 15)), (kit.stream_l2(), (40, 10))])
    rng = random.Random(2560)
    script = _fill_script(
        rng,
        [
            ("sort", total // 9, total // 45),
            ("huffman", total // 11, total // 55),
            ("rle", total // 30, total // 150),
        ],
        total,
    )
    return Program("256.bzip2", kit.blocks, [sort, huffman, rle], script, seed=256)


def _twolf(scale: ScaleConfig) -> Program:
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=300)
    # The dominant behaviour mixes blocks of *similar* IPC so the overall
    # sigma stays small (the paper reports sigma = .055 for 300.twolf).
    place = Behavior(
        "place",
        [(kit.stream_l2(), (90, 10)), (kit.thrash_l2(), (35, 4)),
         (kit.branchy(taken_prob=0.42), (45, 5))],
    )
    spike_hi = Behavior("spike_hi", [(kit.compute_hi(ops=28), (120, 20))])
    spike_lo = Behavior("spike_lo", [(kit.thrash(spans=2), (80, 15))])
    # Weak coarse phases: one dominant behaviour with rare, short bursts of
    # abnormal performance (paper Section 4, Fig. 10 discussion).
    rng = random.Random(3000)
    burst = max(total // 1200, 2_000)
    segments: List[Segment] = []
    acc = 0
    toggle = 0
    while acc < total:
        ops = rng.randint(total // 22, total // 16)
        segments.append(Segment("place", ops))
        acc += ops
        if acc >= total:
            break
        # Periodic, short abnormal bursts (Section 4): alternate high and
        # low, with a quiet slot in between so the bursts stay rare.
        if toggle % 3 != 2:
            name = "spike_hi" if toggle % 3 == 0 else "spike_lo"
            segments.append(Segment(name, burst))
            acc += burst
        toggle += 1
    return Program("300.twolf", kit.blocks, [place, spike_hi, spike_lo], segments, seed=300)


def wupwise_analogue(scale: ScaleConfig) -> Program:
    """The Figure 3 subject: a workload with strongly bimodal IPC."""
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=168)
    zgemm = Behavior(
        "zgemm", [(kit.compute_fp(ops=26), (140, 25)), (kit.compute_hi(), (60, 10))]
    )
    gammul = Behavior(
        "gammul", [(kit.stream_mid(), (80, 20)), (kit.thrash(spans=2), (50, 12))]
    )
    rng = random.Random(1680)
    script = _fill_script(
        rng,
        [
            ("zgemm", total // 10, total // 80),
            ("gammul", total // 14, total // 110),
        ],
        total,
    )
    return Program("168.wupwise", kit.blocks, [zgemm, gammul], script, seed=168)


# Adversarial pattern geometry.  Each phase's working set is a *short
# deterministic address cycle* (span / stride addresses, far fewer than
# one BBV sampling period's executions), so the per-period MAV is
# stationary inside a phase; hostility comes from *conflict* misses, not
# footprint: a stride of one cache-way maps every address to the same
# set, and a cycle longer than the associativity evicts on every access.
_L1_WAY = 16 * 1024  # 64 KB / 4 ways: stride -> one L1 set, L2-resident
_L2_WAY = 128 * 1024  # 1 MB / 8 ways: stride -> one L1 *and* L2 set


def _adv_stride_flip(scale: ScaleConfig) -> Program:
    """Two phases over byte-identical code: L1-resident streaming flips
    to a memory-latency conflict chain.  The BBV stream is unchanged
    across the flip; the memory stream (and IPC) is not."""
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=901)
    b = kit.builder
    friendly_pats = [
        b.pattern(PatternKind.REUSE, _L1_FIT, stride=256),
        b.pattern(PatternKind.REUSE, _L1_FIT, stride=256, is_write=True),
    ]
    core = kit._add(
        b.build(20, mix="mixed", dep_density=0.30, mem_patterns=friendly_pats)
    )
    # 32 addresses one L2 way apart: same L1 and L2 set, 32 > assoc at
    # both levels, so every access conflict-misses to memory.
    hostile_pats = [
        b.pattern(PatternKind.REUSE, 32 * _L2_WAY, stride=_L2_WAY),
        b.pattern(
            PatternKind.REUSE, 32 * _L2_WAY, stride=_L2_WAY, is_write=True
        ),
    ]
    core_hostile = kit._add(b.twin(core, hostile_pats))
    glue_pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=256)]
    glue = kit._add(
        b.build(24, mix="int_light", dep_density=0.10, mem_patterns=glue_pats)
    )
    # Identical (block-address, iteration) structure in both behaviours —
    # zero jitter keeps the two branch streams exactly equal.
    friendly = Behavior("friendly", [(core, 20), (glue, 10)])
    hostile = Behavior("hostile", [(core_hostile, 20), (glue, 10)])
    rng = random.Random(9010)
    script = _fill_script(
        rng,
        [("friendly", total // 8, 0), ("hostile", total // 8, 0)],
        total,
    )
    return Program(
        "adv.stride_flip", kit.blocks, [friendly, hostile], script, seed=901
    )


def _adv_footprint_step(scale: ScaleConfig) -> Program:
    """Three phases over byte-identical code stepping the access latency
    L1 hit -> L2 hit -> memory.  Each step moves the IPC without moving
    a single branch."""
    total = scale.benchmark_ops
    kit = _WorkloadKit(seed=902)
    b = kit.builder
    near_pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=256)]
    core = kit._add(
        b.build(18, mix="int", dep_density=0.25, mem_patterns=near_pats)
    )
    # 64 addresses one L1 way apart: one L1 set (misses), spread thinly
    # enough across L2 sets to stay L2-resident (hits).
    mid_pats = [b.pattern(PatternKind.REUSE, 64 * _L1_WAY, stride=_L1_WAY)]
    core_mid = kit._add(b.twin(core, mid_pats))
    # 32 addresses one L2 way apart: conflict-miss to memory (see above).
    far_pats = [b.pattern(PatternKind.REUSE, 32 * _L2_WAY, stride=_L2_WAY)]
    core_far = kit._add(b.twin(core, far_pats))
    glue_pats = [b.pattern(PatternKind.REUSE, _L1_FIT, stride=256)]
    glue = kit._add(
        b.build(22, mix="fp", dep_density=0.15, mem_patterns=glue_pats)
    )
    behaviors = [
        Behavior("near", [(core, 25), (glue, 10)]),
        Behavior("mid", [(core_mid, 25), (glue, 10)]),
        Behavior("far", [(core_far, 25), (glue, 10)]),
    ]
    rng = random.Random(9020)
    script = _fill_script(
        rng,
        [
            ("near", total // 9, 0),
            ("mid", total // 9, 0),
            ("far", total // 9, 0),
        ],
        total,
    )
    return Program(
        "adv.footprint_step", kit.blocks, behaviors, script, seed=902
    )


#: Builder registry keyed by benchmark name.
_BUILDERS: Dict[str, Callable[[ScaleConfig], Program]] = {
    "164.gzip": _gzip,
    "177.mesa": _mesa,
    "179.art": _art,
    "181.mcf": _mcf,
    "183.equake": _equake,
    "188.ammp": _ammp,
    "197.parser": _parser,
    "253.perlbmk": _perlbmk,
    "256.bzip2": _bzip2,
    "300.twolf": _twolf,
    "168.wupwise": wupwise_analogue,
    "adv.stride_flip": _adv_stride_flip,
    "adv.footprint_step": _adv_footprint_step,
}


def get_workload(name: str, scale: ScaleConfig = Scale.SCALED) -> Program:
    """Build the named workload at the given scale.

    Args:
        name: one of :data:`WORKLOAD_NAMES`, :data:`ADVERSARIAL_NAMES`,
            or ``"168.wupwise"``.
        scale: interval-scale configuration.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return builder(scale)
