"""Elmagarmid's T/R-table detection and abort-current-blocker policy."""

from repro.baselines.elmagarmid import (
    ElmagarmidPolicy,
    build_r_table,
    build_t_table,
    chase,
)
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.analysis.scenarios import build_ring
from repro.baselines.wfg import has_deadlock

from .host import block, hosted


class TestTables:
    def test_t_table_lists_blocked(self, example_41_table):
        t_table = build_t_table(example_41_table)
        assert set(t_table) == {1, 2, 5, 6, 7, 8, 9, 3, 4}
        assert t_table[8].rid == "R2"
        assert t_table[8].mode is LockMode.X
        assert t_table[1].rid == "R1"  # blocked conversion

    def test_r_table_lists_holders(self, example_41_table):
        r_table = build_r_table(example_41_table)
        assert [tid for tid, _ in r_table["R2"]] == [7]
        assert len(r_table["R1"]) == 4


class TestChase:
    def test_finds_cycle_through_start(self):
        table, _ = build_ring(3)
        cycle = chase(table, 1)
        assert cycle is not None
        assert cycle[0] == 1
        assert sorted(cycle) == [1, 2, 3]

    def test_none_without_cycle(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.X)
        assert chase(table, 2) is None

    def test_unblocked_start_returns_none(self):
        table, _ = build_ring(3)
        scheduler.request(table, 9, "FREE", LockMode.S)
        assert chase(table, 9) is None

    def test_gone_transactions_are_chased_around(self):
        table, _ = build_ring(3)
        cycle = chase(table, 1)
        assert chase(table, 1, gone={cycle[1]}) is None


class TestStrategy:
    def test_aborts_current_blocker_not_min_cost(self):
        """The defining (sub-optimal) behavior: the direct blocker dies
        even when a far cheaper victim exists elsewhere on the cycle."""
        table, _ = build_ring(3)
        costs = CostTable({1: 1.0, 2: 0.01, 3: 100.0})
        result = block(hosted(table, ElmagarmidPolicy(), costs), 1)
        cycle = chase(build_ring(3)[0], 1)
        expected_blocker = cycle[1]
        assert result.aborted == [expected_blocker]

    def test_resolves_ring(self):
        table, _ = build_ring(4)
        core = hosted(table, ElmagarmidPolicy())
        result = block(core, 1)
        assert result.stats.cycles_found >= 1
        assert len(result.aborted) >= 1
        # The victims are released on the host table.
        assert not has_deadlock(core.table)

    def test_quiet_without_cycle(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.X)
        assert block(hosted(table, ElmagarmidPolicy()), 2) is None

    def test_multiple_cycles_multiple_blockers(self, example_41_table):
        # From T3 the chase can find several overlapping cycles; each
        # resolution aborts another current blocker.
        result = block(hosted(example_41_table, ElmagarmidPolicy()), 3)
        assert result.aborted
        assert len(set(result.aborted)) == len(result.aborted)
