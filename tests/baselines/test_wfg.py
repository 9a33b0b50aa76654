"""The classic wait-for-graph baseline and oracle."""

from repro.baselines.wfg import (
    WFGPolicy,
    adjacency,
    find_cycle,
    has_deadlock,
    resolve,
    waits_for_edges,
)
from repro.core.modes import LockMode
from repro.core.notation import parse_table
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.analysis.scenarios import build_ring, build_upgrade_pair
from tests.conftest import EXAMPLE_41, EXAMPLE_51

from .host import block, hosted


class TestWaitsForEdges:
    def test_queue_waiter_waits_for_conflicting_holder(self):
        states = parse_table("R: Holder((T1, X, NL)) Queue((T2, S))")
        assert (2, 1) in waits_for_edges(states)

    def test_queue_fifo_edge(self):
        states = parse_table("R: Holder((T1, X, NL)) Queue((T2, S) (T3, S))")
        assert (3, 2) in waits_for_edges(states)

    def test_conversion_waits_for_conflicting_gm(self):
        states = parse_table("R: Holder((T1, IS, S) (T2, IX, NL)) Queue()")
        assert (1, 2) in waits_for_edges(states)

    def test_conflicting_blocked_conversions_later_waits_earlier(self):
        states = parse_table("R: Holder((T1, S, X) (T2, S, X)) Queue()")
        edges = waits_for_edges(states)
        # gm/bm conflicts give both directions; the UPR bm/bm edge points
        # later -> earlier.
        assert (2, 1) in edges and (1, 2) in edges

    def test_example_51_edges_reverse_hwtwbg(self):
        states = parse_table(EXAMPLE_51)
        edges = waits_for_edges(states)
        assert (2, 1) in edges  # T2 waits for T1 at R1
        assert (1, 2) in edges and (1, 3) in edges  # T1 waits at R2
        assert (3, 2) in edges  # FIFO behind T2


class TestCycleOracle:
    def test_example_41_deadlocked(self, example_41_table):
        assert has_deadlock(example_41_table)

    def test_ring(self):
        table, _ = build_ring(5)
        assert has_deadlock(table)

    def test_conversion_deadlock_seen(self):
        table, _ = build_upgrade_pair()
        assert has_deadlock(table)

    def test_no_deadlock(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.X)
        assert not has_deadlock(table)

    def test_find_cycle_returns_vertices(self):
        cycle = find_cycle({1: [2], 2: [3], 3: [1]})
        assert sorted(cycle) == [1, 2, 3]

    def test_adjacency_sorted(self):
        states = parse_table(EXAMPLE_41)
        adj = adjacency(states)
        for targets in adj.values():
            assert targets == sorted(targets)


class TestWFGStrategy:
    def test_periodic_resolves_ring(self):
        table, _ = build_ring(4)
        assert len(resolve(table.snapshot(), CostTable())) == 1

    def test_continuous_hook(self):
        table, _ = build_ring(3)
        core = hosted(table, WFGPolicy())
        result = block(core, 1)
        assert result.aborted
        assert result.stats.cycles_found == len(result.aborted)
        assert not has_deadlock(core.table)

    def test_continuous_quiet_on_periodic_hook(self):
        # The check runs at block time only: no periodic pass for it.
        assert not WFGPolicy().wants_periodic

    def test_min_cost_victim(self):
        table, _ = build_ring(3)
        costs = CostTable({1: 9.0, 2: 1.0, 3: 9.0})
        assert resolve(table.snapshot(), costs) == [2]

    def test_example_51_resolved_with_one_abort(self, example_51_table):
        victims = resolve(
            example_51_table.snapshot(), CostTable({1: 6.0, 2: 4.0, 3: 1.0})
        )
        # The WFG DFS happens to meet the inner {T1, T2} cycle first and
        # its min-cost victim T2 breaks both cycles — the same net
        # outcome Park's algorithm reaches via Step-3 sparing.
        assert victims == [2]

    def test_victims_not_applied_to_table(self):
        table, _ = build_ring(3)
        resolve(table.snapshot(), CostTable())
        # All three ring members still wait: resolving only *decides*.
        assert len(table.blocked_tids()) == 3
