"""Jiang's matrix-based continuous detection."""

from repro.baselines.jiang import (
    JiangPolicy,
    WaitForMatrix,
    direct_blockers,
    list_all_cycles_through,
    wait_for_matrix,
)
from repro.baselines.wfg import has_deadlock
from repro.core.modes import LockMode
from repro.core.notation import parse_resource
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.analysis.scenarios import build_reader_ladder, build_ring

from .host import block, hosted


class TestWaitForMatrix:
    def test_closure_transitive(self):
        matrix = WaitForMatrix()
        matrix.add_edges(1, [2])
        matrix.add_edges(2, [3])
        assert matrix.waits_for(1, 3)
        assert not matrix.waits_for(3, 1)

    def test_deadlock_bit(self):
        matrix = WaitForMatrix()
        matrix.add_edges(1, [2])
        assert not matrix.deadlocked(1)
        matrix.add_edges(2, [1])
        assert matrix.deadlocked(1) and matrix.deadlocked(2)

    def test_participants(self):
        matrix = WaitForMatrix()
        matrix.add_edges(1, [2])
        matrix.add_edges(2, [1, 3])
        assert matrix.participants(1) == {1, 2}
        assert matrix.participants(3) == set()

    def test_remove_transaction(self):
        matrix = WaitForMatrix()
        matrix.add_edges(1, [2])
        matrix.add_edges(2, [1])
        matrix.remove_transaction(2)
        assert not matrix.deadlocked(1)

    def test_self_edges_ignored(self):
        matrix = WaitForMatrix()
        matrix.add_edges(1, [1])
        assert not matrix.deadlocked(1)


class TestDirectBlockers:
    def test_queue_waiter_blockers(self):
        state = parse_resource(
            "R: Holder((T1, S, NL) (T2, S, NL)) Queue((T3, X))"
        )
        assert direct_blockers(state, 3) == {1, 2}

    def test_queue_predecessor_included(self):
        state = parse_resource(
            "R: Holder((T1, IS, NL)) Queue((T2, X) (T3, IX))"
        )
        assert direct_blockers(state, 3) == {2}

    def test_conversion_blockers(self):
        state = parse_resource("R: Holder((T1, S, X) (T2, S, X)) Queue()")
        assert direct_blockers(state, 2) == {1}
        assert direct_blockers(state, 1) == {2}


class TestCycleEnumeration:
    def test_all_cycles_through_writer(self):
        table, tids = build_reader_ladder(4)
        writer = tids[-1]
        cycles = list_all_cycles_through(table, writer)
        # One cycle per reader.
        assert len(cycles) == 4

    def test_no_cycles_when_clean(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.X)
        assert list_all_cycles_through(table, 2) == []


class TestStrategy:
    def test_detects_on_block(self):
        table, _ = build_ring(3)
        core = hosted(table, JiangPolicy())
        result = block(core, 1)
        assert result.stats.cycles_found >= 1
        assert result.aborted
        assert not has_deadlock(core.table)

    def test_min_cost_participant(self):
        table, _ = build_ring(3)
        core = hosted(
            table, JiangPolicy(), CostTable({1: 5.0, 2: 0.25, 3: 5.0})
        )
        assert block(core, 1).aborted[0] == 2

    def test_quiet_without_cycle(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.X)
        assert block(hosted(table, JiangPolicy()), 2) is None

    def test_refresh_tracks_table(self):
        table, _ = build_ring(3)
        assert wait_for_matrix(table).deadlocked(1)
        scheduler.release_all(table, 2)
        assert not wait_for_matrix(table).deadlocked(1)
