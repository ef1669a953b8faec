#!/usr/bin/env python
"""Author a custom synthetic workload and inspect its phase structure.

Shows the full program-model API: build basic blocks with chosen
instruction mixes and memory patterns, group them into behaviours, write a
phase script, then watch the online phase classifier discover the phases
you wrote — including where its BBV view diverges from the ground truth.
"""

import math

from repro import (
    BbvTracker,
    Behavior,
    BlockBuilder,
    Mode,
    PatternKind,
    Program,
    Segment,
    SimulationEngine,
)
from repro.phase import OnlinePhaseClassifier

BBV_PERIOD = 5_000


def build_program() -> Program:
    builder = BlockBuilder(seed=7)

    # A compute-bound loop body: high ILP, L1-resident data.
    crunch = builder.build(
        ops=24,
        mix="int_light",
        dep_density=0.1,
        mem_patterns=[builder.pattern(PatternKind.REUSE, 8 * 1024, stride=8)],
    )
    # A memory-bound loop body: pointer chasing over 16 MB.
    wander = builder.build(
        ops=12,
        mix="int",
        dep_density=0.4,
        mem_patterns=[builder.pattern(PatternKind.CHASE, 16 * 1024 * 1024)],
    )
    # A branchy scanning loop.
    scan = builder.build(
        ops=10,
        mix="int",
        dep_density=0.25,
        mem_patterns=[builder.pattern(PatternKind.STREAM, 1024 * 1024, stride=8)],
        random_taken_prob=0.4,
    )

    behaviors = [
        Behavior("crunch", [(crunch, (80, 10))]),
        Behavior("wander", [(wander, (60, 8))]),
        Behavior("scan", [(scan, (90, 12))]),
    ]
    script = [
        Segment("crunch", 60_000),
        Segment("wander", 40_000),
        Segment("crunch", 60_000),
        Segment("scan", 50_000),
        Segment("wander", 40_000),
    ]
    return Program("custom.demo", [crunch, wander, scan], behaviors, script, seed=99)


def main() -> None:
    program = build_program()
    print(f"program: {program}")
    print(f"true phase script: {[(s.behavior, s.ops) for s in program.script]}\n")

    tracker = BbvTracker()
    engine = SimulationEngine(program, signal_tracker=tracker)
    classifier = OnlinePhaseClassifier(threshold=0.05 * math.pi)

    print(f"{'ops':>10}  {'true behavior':<14} {'detected phase':>14}")
    while not engine.exhausted:
        true_behavior = program.true_phase_at(engine.ops_completed)
        run = engine.run(Mode.FUNC_WARM, BBV_PERIOD)
        if run.ops == 0:
            break
        decision = classifier.observe(tracker.take_vector(), run.ops)
        marker = " <- new phase" if decision.created else (
            " <- transition" if decision.changed else ""
        )
        if decision.changed or decision.created or engine.ops_completed % 25_000 < BBV_PERIOD:
            print(f"{engine.ops_completed:>10,}  {true_behavior:<14} "
                  f"{decision.phase_id:>14}{marker}")

    print(f"\ndetected {classifier.n_phases} phases over "
          f"{classifier.n_observations} periods "
          f"({classifier.n_changes} transitions); ground truth has 3 behaviours")
    for profile in classifier.phases:
        share = profile.ops / engine.ops_completed
        print(f"  phase {profile.phase_id}: {share:5.1%} of execution")


if __name__ == "__main__":
    main()
