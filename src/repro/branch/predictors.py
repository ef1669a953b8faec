"""Two-bit-counter branch predictors: bimodal and gshare.

Only direction prediction is modelled; a wrong direction costs the machine's
mispredict penalty.  The pattern-history tables are plain Python lists of
2-bit saturating counters for speed and easy snapshotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..errors import ConfigurationError, SnapshotError

__all__ = ["BranchStats", "BranchPredictor", "BimodalPredictor", "GsharePredictor"]

#: 2-bit saturating counter values: 0-1 predict not-taken, 2-3 predict taken.
_WEAK_TAKEN = 2
_MAX_COUNTER = 3


@dataclass
class BranchStats:
    """Prediction accuracy counters."""

    predictions: int = 0
    mispredictions: int = 0


class BranchPredictor:
    """Abstract base: predict-and-update with one call per branch."""

    def __init__(self) -> None:
        self.stats = BranchStats()

    def predict_update(self, addr: int, taken: bool) -> bool:
        """Predict branch at *addr*, update state with the true outcome.

        Returns True when the prediction was correct.
        """
        raise NotImplementedError

    def taken_streak(self, addr: int, limit: int) -> int:
        """Apply up to *limit* taken-outcome :meth:`predict_update` calls
        in bulk, stopping before the first one that would mispredict or
        write a table entry.

        Returns the number applied.  Every applied step is byte-identical
        to a real ``predict_update(addr, True)``: the prediction counter
        advances and any history register shifts, but no table entry moves
        and no misprediction is recorded.  The batched architectural pass
        uses this to collapse the uniformly-taken middle of a
        loop-controlled run — including the history-refill stretch right
        after the loop's final not-taken branch — into one call.
        """
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """Capture predictor state for checkpointing."""
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        raise NotImplementedError


class BimodalPredictor(BranchPredictor):
    """Per-address 2-bit counters indexed by low branch-address bits."""

    def __init__(self, table_bits: int = 12) -> None:
        super().__init__()
        if not 1 <= table_bits <= 24:
            raise ConfigurationError("table_bits must be in 1..24")
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._table: List[int] = [_WEAK_TAKEN] * (1 << table_bits)

    def predict_update(self, addr: int, taken: bool) -> bool:
        idx = (addr >> 2) & self._mask
        counter = self._table[idx]
        predicted = counter >= _WEAK_TAKEN
        correct = predicted == taken
        if taken:
            if counter < _MAX_COUNTER:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        self.stats.predictions += 1
        if not correct:
            self.stats.mispredictions += 1
        return correct

    def taken_streak(self, addr: int, limit: int) -> int:
        if limit <= 0:
            return 0
        # No history register: a saturated counter covers the whole span.
        if self._table[(addr >> 2) & self._mask] != _MAX_COUNTER:
            return 0
        self.stats.predictions += limit
        return limit

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "bimodal", "table": list(self._table)}

    def restore(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "bimodal" or len(state["table"]) != len(self._table):
            raise SnapshotError("snapshot does not match this predictor")
        self._table = list(state["table"])


class GsharePredictor(BranchPredictor):
    """Global-history predictor: PC xor GHR indexes a 2-bit counter table."""

    def __init__(self, table_bits: int = 12) -> None:
        super().__init__()
        if not 1 <= table_bits <= 24:
            raise ConfigurationError("table_bits must be in 1..24")
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._table: List[int] = [_WEAK_TAKEN] * (1 << table_bits)
        self._history = 0

    def predict_update(self, addr: int, taken: bool) -> bool:
        idx = ((addr >> 2) ^ self._history) & self._mask
        counter = self._table[idx]
        predicted = counter >= _WEAK_TAKEN
        correct = predicted == taken
        if taken:
            if counter < _MAX_COUNTER:
                self._table[idx] = counter + 1
            self._history = ((self._history << 1) | 1) & self._mask
        else:
            if counter > 0:
                self._table[idx] = counter - 1
            self._history = (self._history << 1) & self._mask
        self.stats.predictions += 1
        if not correct:
            self.stats.mispredictions += 1
        return correct

    def taken_streak(self, addr: int, limit: int) -> int:
        if limit <= 0:
            return 0
        mask = self._mask
        table = self._table
        pc = addr >> 2
        h = self._history
        j = 0
        while j < limit:
            idx = (pc ^ h) & mask
            if table[idx] != _MAX_COUNTER:
                break
            if h == mask:
                # History at its fixed point and the (now constant) entry
                # saturated: every remaining step repeats silently.
                j = limit
                break
            h = ((h << 1) | 1) & mask
            j += 1
        if j:
            self._history = h
            self.stats.predictions += j
        return j

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "gshare",
            "table": list(self._table),
            "history": self._history,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "gshare" or len(state["table"]) != len(self._table):
            raise SnapshotError("snapshot does not match this predictor")
        self._table = list(state["table"])
        self._history = state["history"]
