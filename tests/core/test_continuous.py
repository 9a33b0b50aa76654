"""The continuous companion: ``detect_once`` rooted at the transaction
that just blocked."""

from repro.core.detection import detect_once
from repro.core.hw_twbg import build_graph
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable


def block_and_check(table, costs, tid, rid, mode):
    outcome = scheduler.request(table, tid, rid, mode)
    if outcome.granted:
        return None
    return detect_once(table, costs, roots=[tid])


class TestContinuousDetector:
    def test_no_cycle_no_action(self):
        table = LockTable()
        costs = CostTable()
        scheduler.request(table, 1, "R", LockMode.X)
        result = block_and_check(table, costs, 2, "R", LockMode.X)
        assert result is not None and not result.deadlock_found

    def test_cycle_resolved_at_block_time(self):
        table = LockTable()
        costs = CostTable()
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "B", LockMode.X)
        block_and_check(table, costs, 1, "B", LockMode.X)
        result = block_and_check(table, costs, 2, "A", LockMode.X)
        assert result.deadlock_found
        assert len(result.aborted) == 1
        assert not build_graph(table.snapshot()).has_cycle()

    def test_rooted_walk_only_touches_reachable_part(self):
        table = LockTable()
        costs = CostTable()
        # An unrelated wait chain elsewhere.
        scheduler.request(table, 10, "Z1", LockMode.X)
        scheduler.request(table, 11, "Z1", LockMode.X)
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "B", LockMode.X)
        block_and_check(table, costs, 1, "B", LockMode.X)
        result = block_and_check(table, costs, 2, "A", LockMode.X)
        assert result.deadlock_found
        # T10/T11's chain is untouched.
        assert table.blocked_at(11) == "Z1"

    def test_conversion_deadlock_found_on_second_upgrade(self):
        table = LockTable()
        costs = CostTable()
        scheduler.request(table, 1, "R", LockMode.S)
        scheduler.request(table, 2, "R", LockMode.S)
        first = block_and_check(table, costs, 1, "R", LockMode.X)
        assert not first.deadlock_found
        second = block_and_check(table, costs, 2, "R", LockMode.X)
        assert second.deadlock_found
        assert len(second.aborted) == 1

    def test_costs_respected(self):
        table = LockTable()
        costs = CostTable({1: 9.0, 2: 1.0})
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "B", LockMode.X)
        block_and_check(table, costs, 1, "B", LockMode.X)
        result = block_and_check(table, costs, 2, "A", LockMode.X)
        assert result.aborted == [2]

    def test_tdr2_available_continuously(self, example_41_table):
        # Feeding the Example 4.1 state through a rooted walk from T3
        # still finds the cycle and repositions rather than aborts.
        result = detect_once(example_41_table, roots=[3])
        assert result.deadlock_found
        assert result.abort_free
