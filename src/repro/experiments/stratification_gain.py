"""Extension experiment: the stratified-sampling gain, measured.

Section 2.2's quantitative core: "It has been shown in [17] that by taking
phase behavior into account in the SMARTS system, the number of samples
needed can be reduced by over forty times over full SMARTS simulation."

For every benchmark this experiment labels the reference trace's fine
windows with (a) the ground-truth behaviour script and (b) the online
classifier's phases at the canonical threshold, then computes how many
samples a 3%-at-99.7% estimate of mean window IPC needs with and without
each stratification.  The gain from detected phases approaching the gain
from ground truth is the direct measure of phase-detection quality.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from ..phase import OnlinePhaseClassifier
from ..sampling.full import ReferenceTrace
from ..stats.sampling_theory import required_samples_comparison
from .cells import ExperimentCell, trace_cell
from .formatting import table
from .runner import ExperimentContext

__all__ = ["run", "format_result", "cells"]

#: Classifier threshold used for the detected-phase labelling.
THRESHOLD_PI = 0.05


def _labels_from_truth(
    ctx: ExperimentContext, name: str, trace: ReferenceTrace
) -> List[int]:
    program = ctx.program(name)
    behaviors = sorted(program.behaviors)
    index = {b: i for i, b in enumerate(behaviors)}
    labels = []
    offset = 0
    for ops in trace.ops:
        labels.append(index[program.true_phase_at(offset)])
        offset += int(ops)
    return labels


def _labels_from_classifier(trace: ReferenceTrace) -> List[int]:
    classifier = OnlinePhaseClassifier(THRESHOLD_PI * math.pi)
    labels = []
    for bbv, ops in zip(trace.normalized_bbvs(), trace.ops):
        labels.append(classifier.observe(bbv, int(ops)).phase_id)
    return labels


def cells(ctx: ExperimentContext) -> List[ExperimentCell]:
    """Cacheable units: every benchmark's reference trace."""
    return [trace_cell(name) for name in ctx.benchmarks]


def run(ctx: ExperimentContext) -> Dict[str, Any]:
    """Compute per-benchmark stratification gains."""
    rows = {}
    for name in ctx.benchmarks:
        trace = ctx.trace(name)
        ipcs = trace.ipcs.tolist()
        truth = required_samples_comparison(
            ipcs, _labels_from_truth(ctx, name, trace)
        )
        detected = required_samples_comparison(
            ipcs, _labels_from_classifier(trace)
        )
        rows[name] = {
            "unstratified_samples": truth["unstratified"],
            "truth_samples": truth["stratified"],
            "truth_gain": truth["gain"],
            "detected_samples": detected["stratified"],
            "detected_gain": detected["gain"],
        }
    gains = [r["detected_gain"] for r in rows.values()]
    return {
        "benchmarks": rows,
        "mean_detected_gain": float(np.mean(gains)),
        "max_detected_gain": float(np.max(gains)),
    }


def format_result(result: Dict[str, Any]) -> str:
    """Per-benchmark required-sample table with gain columns."""
    rows = []
    for name, stats in result["benchmarks"].items():
        rows.append(
            [
                name,
                f"{stats['unstratified_samples']:,.0f}",
                f"{stats['truth_samples']:,.0f}",
                f"{stats['truth_gain']:.1f}x",
                f"{stats['detected_samples']:,.0f}",
                f"{stats['detected_gain']:.1f}x",
            ]
        )
    header = (
        "Extension — stratified-sampling gain (3% @ 99.7% on window IPC)\n"
        f"mean gain from detected phases: "
        f"{result['mean_detected_gain']:.1f}x (max "
        f"{result['max_detected_gain']:.1f}x; the paper's [17] reports "
        ">40x at full SPEC scale)\n"
    )
    return header + table(
        [
            "benchmark",
            "unstratified",
            "true-phase",
            "gain",
            "detected-phase",
            "gain",
        ],
        rows,
    )
