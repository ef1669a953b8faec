"""Pluggable phase signals: the vectors the online classifier compares.

The paper's phase signal is the basic-block vector (Figure 4): taken
branches hash into a small register file that accumulates
ops-since-last-taken-branch.  BBVs are a *control-flow* projection, so
phases that execute the same code over different data are invisible to
them; Caculo et al. (PAPERS.md) show memory-access vectors catch exactly
those.  This package makes the signal a first-class abstraction:

* :class:`SignalTracker` — the protocol every signal implements
  (``record_batch`` / ``take_vector`` / ``snapshot`` / ``restore``);
  the engine and the sampling plans are written against it.
* :class:`BbvTracker` — the paper's BBV (the default signal), with the
  reduced 5-bit and wide modulo hashes.
* :class:`MavTracker` — an online reduced memory-access vector over
  cache-line/page granularities, batched in closed form from the same
  run-length records.
* :class:`ConcatenatedSignal` — a weighted concatenation of signals
  (BBV + MAV by default), sensitive to phase changes visible to either.
* :func:`make_signal_tracker` — the ``phase_signal`` knob
  (``"bbv"`` / ``"mav"`` / ``"concat"``) resolved into a tracker; the
  sampling techniques thread this through their configs.

Vector geometry (L2 normalisation, angle distance) lives in
:mod:`repro.signals.vector` and applies to every signal alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigurationError
from .base import SignalTracker, pack_registers, unpack_registers
from .bbv import BbvHash, BbvTracker, ReducedBbvHash, WideBbvHash
from .concat import ConcatenatedSignal
from .mav import MavTracker
from .vector import angle_between, l2_norm, manhattan_distance

__all__ = [
    "PHASE_SIGNALS",
    "BbvHash",
    "BbvTracker",
    "ConcatenatedSignal",
    "MavTracker",
    "ReducedBbvHash",
    "SignalTracker",
    "WideBbvHash",
    "angle_between",
    "l2_norm",
    "make_signal_tracker",
    "manhattan_distance",
    "pack_registers",
    "unpack_registers",
]

#: Valid values of the ``phase_signal`` configuration knob.
PHASE_SIGNALS = ("bbv", "mav", "concat")


def make_signal_tracker(
    signal: str = "bbv",
    hash_seed: int = 12345,
    wide_bbv_buckets: Optional[int] = None,
    mav_buckets: int = 32,
    signal_weights: Sequence[float] = (1.0, 1.0),
) -> SignalTracker:
    """Resolve a ``phase_signal`` knob value into a tracker.

    Args:
        signal: ``"bbv"`` (paper default), ``"mav"``, or ``"concat"``
            (BBV + MAV concatenated).
        hash_seed: seed of the reduced BBV hash's bit choice.
        wide_bbv_buckets: when set, the BBV part uses the wide modulo
            hash of this many buckets (the dimensionality ablation).
        mav_buckets: MAV register-file width per granularity.
        signal_weights: per-signal weights for ``"concat"``
            (BBV weight first).
    """

    def bbv() -> BbvTracker:
        if wide_bbv_buckets is not None:
            return BbvTracker(WideBbvHash(wide_bbv_buckets))
        return BbvTracker(ReducedBbvHash(seed=hash_seed))

    if signal == "bbv":
        return bbv()
    if signal == "mav":
        return MavTracker(n_buckets=mav_buckets)
    if signal == "concat":
        return ConcatenatedSignal(
            [bbv(), MavTracker(n_buckets=mav_buckets)],
            weights=list(signal_weights),
        )
    raise ConfigurationError(
        f"unknown phase signal {signal!r}; expected one of {PHASE_SIGNALS}"
    )
