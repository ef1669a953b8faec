"""Tests for the branch predictors."""

import random

import pytest

from repro.branch import BimodalPredictor, GsharePredictor
from repro.errors import ConfigurationError, SnapshotError


@pytest.fixture(params=[BimodalPredictor, GsharePredictor])
def predictor(request):
    return request.param(table_bits=10)


class TestCommonBehaviour:
    def test_learns_always_taken(self, predictor):
        for _ in range(4):
            predictor.predict_update(0x1000, True)
        assert predictor.predict_update(0x1000, True) is True

    def test_learns_always_not_taken(self, predictor):
        for _ in range(4):
            predictor.predict_update(0x1000, False)
        assert predictor.predict_update(0x1000, False) is True

    def test_loop_branch_mispredicts_once_per_exit(self, predictor):
        """A (T^n N)* loop pattern costs ~one mispredict per iteration set."""
        predictor_misses = 0
        for _ in range(20):          # 20 loop visits
            for _ in range(9):       # 9 taken back-edges
                if not predictor.predict_update(0x2000, True):
                    predictor_misses += 1
            if not predictor.predict_update(0x2000, False):
                predictor_misses += 1
        # Far better than random (100), near one miss per exit for bimodal.
        assert predictor_misses <= 45

    def test_random_branches_mispredict_often(self, predictor):
        rng = random.Random(7)
        misses = 0
        n = 2000
        for _ in range(n):
            if not predictor.predict_update(0x3000, rng.random() < 0.5):
                misses += 1
        assert misses / n > 0.3

    def test_stats_accounting(self, predictor):
        for i in range(10):
            predictor.predict_update(0x100 + i * 4, True)
        assert predictor.stats.predictions == 10
        assert 0 <= predictor.stats.mispredictions <= 10

    def test_snapshot_restore_equivalence(self, predictor):
        rng = random.Random(3)
        history = [(rng.randrange(1 << 14) * 4, rng.random() < 0.7) for _ in range(500)]
        for addr, taken in history[:250]:
            predictor.predict_update(addr, taken)
        snap = predictor.snapshot()
        first = [predictor.predict_update(a, t) for a, t in history[250:]]
        predictor.restore(snap)
        second = [predictor.predict_update(a, t) for a, t in history[250:]]
        assert first == second

    def test_rejects_bad_table_bits(self):
        with pytest.raises(ConfigurationError):
            BimodalPredictor(table_bits=0)
        with pytest.raises(ConfigurationError):
            GsharePredictor(table_bits=30)


class TestBimodalSpecific:
    def test_aliasing_between_distant_addresses(self):
        """Addresses that collide modulo the table share a counter."""
        p = BimodalPredictor(table_bits=4)
        stride = 1 << 6  # (addr >> 2) & 0xF collides every 64 bytes
        for _ in range(4):
            p.predict_update(0x0, True)
        assert p.predict_update(stride * (1 << 2) * 4, True) is True

    def test_restore_rejects_gshare_snapshot(self):
        b = BimodalPredictor(table_bits=8)
        g = GsharePredictor(table_bits=8)
        with pytest.raises(SnapshotError):
            b.restore(g.snapshot())


class TestGshareSpecific:
    def test_learns_alternating_pattern(self):
        """Gshare's history lets it learn T,N,T,N... perfectly; bimodal
        cannot."""
        g = GsharePredictor(table_bits=12)
        outcome = True
        misses_late = 0
        for i in range(400):
            correct = g.predict_update(0x4000, outcome)
            if i >= 200 and not correct:
                misses_late += 1
            outcome = not outcome
        assert misses_late == 0

    def test_history_in_snapshot(self):
        g = GsharePredictor(table_bits=8)
        g.predict_update(0x0, True)
        snap = g.snapshot()
        assert "history" in snap


class TestBulkFastPaths:
    """taken_streak — the batched architectural pass's bulk branch path.

    It claims byte-identity with a sequence of real ``predict_update``
    calls; the reference clones the predictor through a snapshot and
    replays the calls one at a time.
    """

    def _clone(self, predictor):
        other = type(predictor)(table_bits=predictor.table_bits)
        other.restore(predictor.snapshot())
        return other

    def _train(self, predictor, seed=7, n=300):
        rng = random.Random(seed)
        addrs = [0x1000, 0x104C, 0x2020, 0x5FF4]
        for _ in range(n):
            addr = rng.choice(addrs)
            # Loop-shaped outcomes: mostly taken with periodic exits.
            predictor.predict_update(addr, rng.random() < 0.85)

    @pytest.mark.parametrize("limit", (0, 1, 7, 40))
    def test_taken_streak_matches_sequential_updates(self, predictor, limit):
        self._train(predictor)
        # Leave the history mid-refill: a not-taken then a few takens.
        predictor.predict_update(0x1000, False)
        predictor.predict_update(0x1000, True)
        reference = self._clone(predictor)
        base_preds = predictor.stats.predictions
        base_miss = predictor.stats.mispredictions
        applied = predictor.taken_streak(0x1000, limit)
        assert 0 <= applied <= limit
        for _ in range(applied):
            assert reference.predict_update(0x1000, True) is True
        assert predictor.snapshot() == reference.snapshot()
        # Every bulk step was a real prediction, and none mispredicted.
        assert predictor.stats.predictions - base_preds == applied
        assert predictor.stats.mispredictions == base_miss
        # The step after the streak behaves identically on both.
        before_mis = predictor.stats.mispredictions
        p = predictor.predict_update(0x1000, True)
        r = reference.predict_update(0x1000, True)
        assert p == r
        assert predictor.snapshot() == reference.snapshot()
        if applied < limit:
            # The streak stopped for a reason: the next real taken update
            # either mispredicts or writes a table entry.
            assert (
                predictor.stats.mispredictions > before_mis
                or p is True
            )

    def test_streak_stops_before_unsaturated_entry(self, predictor):
        # Fresh table: weak-taken counters would move, so no bulk steps.
        assert predictor.taken_streak(0x1000, 100) == 0
