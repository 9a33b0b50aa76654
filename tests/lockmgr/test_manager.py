"""The one-shard lock core under its ``LockManager`` name: locking
surface, detection wiring, events."""

import pytest

from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr.events import Aborted, Blocked, Granted, Repositioned
from repro.lockmgr import LockManager


def classic_deadlock(lm: LockManager) -> None:
    lm.lock(1, "A", LockMode.X)
    lm.lock(2, "B", LockMode.X)
    lm.lock(1, "B", LockMode.X)
    lm.lock(2, "A", LockMode.X)


class TestLocking:
    def test_grant_and_block(self):
        lm = LockManager()
        assert lm.lock(1, "R", LockMode.S).granted
        assert not lm.lock(2, "R", LockMode.X).granted
        assert lm.is_blocked(2)

    def test_holding(self):
        lm = LockManager()
        lm.lock(1, "R", LockMode.IX)
        lm.lock(1, "R2", LockMode.S)
        assert lm.holding(1) == {"R": LockMode.IX, "R2": LockMode.S}

    def test_finish_releases_and_wakes(self):
        lm = LockManager()
        lm.lock(1, "R", LockMode.X)
        lm.lock(2, "R", LockMode.S)
        grants = lm.finish(1)
        assert [g.tid for g in grants] == [2]
        assert not lm.is_blocked(2)

    def test_log_records_events(self):
        lm = LockManager()
        lm.lock(1, "R", LockMode.X)
        lm.lock(2, "R", LockMode.S)
        lm.finish(1)
        kinds = [type(e) for e in lm.log]
        assert kinds == [Granted, Blocked, Granted]


class TestPeriodicDetection:
    def test_detects_classic_deadlock(self):
        lm = LockManager()
        classic_deadlock(lm)
        assert lm.deadlocked()
        result = lm.detect()
        assert result.deadlock_found
        assert len(result.aborted) == 1
        assert not lm.deadlocked()

    def test_no_deadlock_no_action(self):
        lm = LockManager()
        lm.lock(1, "R", LockMode.X)
        lm.lock(2, "R", LockMode.X)
        result = lm.detect()
        assert not result.deadlock_found
        assert result.aborted == []

    def test_victim_rejected_on_next_lock(self):
        lm = LockManager()
        classic_deadlock(lm)
        result = lm.detect()
        victim = result.aborted[0]
        assert lm.was_aborted(victim)
        with pytest.raises(LockTableError):
            lm.lock(victim, "C", LockMode.S)

    def test_finish_clears_aborted_flag(self):
        lm = LockManager()
        classic_deadlock(lm)
        victim = lm.detect().aborted[0]
        lm.finish(victim)
        assert not lm.was_aborted(victim)

    def test_abort_event_logged(self):
        lm = LockManager()
        classic_deadlock(lm)
        lm.detect()
        assert any(isinstance(e, Aborted) for e in lm.log)

    def test_costs_drive_victim_choice(self):
        lm = LockManager(costs=CostTable({1: 10.0, 2: 1.0}))
        classic_deadlock(lm)
        result = lm.detect()
        assert result.aborted == [2]


class TestContinuousDetection:
    def test_resolved_at_block_time(self):
        lm = LockManager(policy="continuous")
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "B", LockMode.X)
        lm.lock(1, "B", LockMode.X)
        outcome = lm.lock(2, "A", LockMode.X)  # closes the cycle
        assert not outcome.granted
        assert lm.last_detection is not None
        assert lm.last_detection.deadlock_found
        assert not lm.deadlocked()

    def test_non_blocking_lock_does_not_detect(self):
        lm = LockManager(policy="continuous")
        lm.lock(1, "A", LockMode.S)
        assert lm.last_detection is None

    def test_blocking_without_cycle_is_quiet(self):
        lm = LockManager(policy="continuous")
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "A", LockMode.X)
        assert lm.last_detection is not None
        assert not lm.last_detection.deadlock_found


class TestGraphView:
    def test_graph_reflects_table(self):
        lm = LockManager()
        classic_deadlock(lm)
        graph = lm.graph()
        assert graph.has_cycle()
        assert graph.has_edge(1, 2, "H") or graph.has_edge(2, 1, "H")

    def test_repositioned_logged(self, example_41_table):
        lm = LockManager()
        for state in example_41_table.resources():
            lm.table.install(state.copy())
        result = lm.detect()
        assert result.repositions
        assert any(isinstance(e, Repositioned) for e in lm.log)
