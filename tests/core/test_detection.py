"""The periodic detection-resolution algorithm (Section 5), end to end."""

import pytest

from repro.core.detection import detect_once
from repro.core.hw_twbg import build_graph
from repro.core.modes import LockMode
from repro.core.notation import load_table
from repro.core.victim import AbortCandidate, CostTable, RepositionCandidate
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.analysis.scenarios import (
    build_chain,
    build_reader_ladder,
    build_ring,
    build_rings,
    build_upgrade_pair,
)
from tests.conftest import EXAMPLE_41, EXAMPLE_51


class TestExample41:
    """The paper's flagship example: resolved without any abort."""

    def test_tdr2_chosen_and_applied(self, example_41_table):
        result = detect_once(example_41_table)
        assert result.deadlock_found
        assert result.abort_free
        assert result.aborted == []
        assert [r.rid for r in result.repositions] == ["R2"]
        assert result.repositions[0].delayed == (8,)

    def test_resulting_state_matches_paper(self, example_41_table):
        detect_once(example_41_table)
        assert (
            str(example_41_table.existing("R2"))
            == "R2(IX): Holder((T9, IX, NL) (T7, IS, NL)) "
            "Queue((T3, S) (T8, X) (T4, X))"
        )

    def test_t9_granted_t3_not(self, example_41_table):
        result = detect_once(example_41_table)
        assert [g.tid for g in result.grants] == [9]
        assert example_41_table.blocked_at(3) == "R2"

    def test_figure_42_no_cycle_left(self, example_41_table):
        detect_once(example_41_table)
        assert not build_graph(example_41_table.snapshot()).has_cycle()

    def test_st_cost_penalized(self, example_41_table):
        costs = CostTable()
        detect_once(example_41_table, costs)
        assert costs.cost(8) > 1.0  # T8 was delayed: penalty applied

    def test_all_four_cycles_resolved_in_one_pass(self, example_41_table):
        # The paper: one repositioning resolves all four cycles at once.
        result = detect_once(example_41_table)
        assert result.stats.cycles_found == 1

    def test_tdr2_applicable_is_the_structural_count(self, example_41_table):
        """The one cycle has an AV/ST-splittable junction, and it wins.
        With TDR-2 switched off the aborts leave three cycles to find,
        and every one still had such a junction: lost on policy, not on
        structure."""
        stats = detect_once(example_41_table).stats
        assert (stats.cycles_found, stats.tdr2_applicable) == (1, 1)
        assert stats.tdr2_applied == 1
        stats = detect_once(
            load_table(LockTable(), EXAMPLE_41), allow_tdr2=False
        ).stats
        assert stats.cycles_found == stats.tdr2_applicable == 3
        assert stats.tdr2_applied == 0

    def test_works_from_scheduler_built_state(self, example_41_by_requests):
        result = detect_once(example_41_by_requests)
        assert result.abort_free
        assert not build_graph(example_41_by_requests.snapshot()).has_cycle()


class TestExample51:
    COSTS = {1: 6.0, 2: 4.0, 3: 1.0}

    def test_walkthrough_reproduced(self, example_51_table):
        result = detect_once(example_51_table, CostTable(dict(self.COSTS)))
        assert result.aborted == [2]
        assert result.spared == [3]
        assert [g.tid for g in result.grants] == [3]

    def test_cycle_order_long_first(self, example_51_table):
        """The W-before-H edge ordering makes the 3-cycle turn up first."""
        result = detect_once(example_51_table, CostTable(dict(self.COSTS)))
        cycles = [sorted(r.cycle) for r in result.resolutions]
        assert cycles == [[1, 2, 3], [1, 2]]
        assert isinstance(result.resolutions[0].chosen, AbortCandidate)
        assert result.resolutions[0].chosen.tid == 3
        assert result.resolutions[1].chosen.tid == 2

    def test_tdr2_applicable_beside_applied(self, example_51_table):
        """Of the two cycles one offers a repositioning (delay T2 behind
        T3, cost 4 / 2); at the walkthrough's costs it loses to aborting
        T3 (cost 1): applicable 1, applied 0 — lost on cost."""
        costs = CostTable(dict(self.COSTS))
        stats = detect_once(example_51_table, costs).stats
        assert stats.cycles_found == 2
        assert (stats.tdr2_applicable, stats.tdr2_applied) == (1, 0)
        assert stats.tdr1_applied == 2

    def test_final_state_matches_paper(self, example_51_table):
        detect_once(example_51_table, CostTable(dict(self.COSTS)))
        assert (
            str(example_51_table.existing("R1"))
            == "R1(S): Holder((T3, S, NL) (T1, S, NL)) Queue()"
        )
        assert (
            str(example_51_table.existing("R2"))
            == "R2(S): Holder((T3, S, NL)) Queue((T1, X))"
        )

    def test_from_real_requests(self, example_51_by_requests):
        result = detect_once(
            example_51_by_requests, CostTable(dict(self.COSTS))
        )
        assert result.aborted == [2]
        assert result.spared == [3]


class TestScenarios:
    def test_acyclic_chain_untouched(self):
        table, _ = build_chain(20)
        result = detect_once(table)
        assert not result.deadlock_found
        assert result.aborted == []
        assert result.stats.cycles_found == 0

    def test_single_ring_one_victim(self):
        table, tids = build_ring(6)
        result = detect_once(table)
        assert result.stats.cycles_found == 1
        assert len(result.aborted) == 1
        assert not build_graph(table.snapshot()).has_cycle()

    def test_ring_release_unblocks_chain(self):
        table, tids = build_ring(4)
        result = detect_once(table)
        # The victim's release lets its waiter proceed.
        assert len(result.grants) >= 1

    def test_disjoint_rings_one_victim_each(self):
        table, _ = build_rings(5, 3)
        result = detect_once(table)
        assert result.stats.cycles_found == 5
        assert len(result.aborted) == 5

    def test_conversion_deadlock_observation_313(self):
        """Observation 3.1(3): two incompatible blocked conversions are
        'a kind of deadlock' — detected and resolved."""
        table, _ = build_upgrade_pair()
        result = detect_once(table)
        assert result.deadlock_found
        assert len(result.aborted) == 1
        survivor = ({1, 2} - set(result.aborted)).pop()
        entry = table.existing("R").holder_entry(survivor)
        assert entry.granted is LockMode.X  # upgraded after the abort

    def test_reader_ladder_all_cycles_cleared(self):
        table, _ = build_reader_ladder(6)
        result = detect_once(table)
        assert result.deadlock_found
        assert not build_graph(table.snapshot()).has_cycle()


class TestAlgorithmMechanics:
    def test_second_run_is_noop(self, example_41_table):
        costs = CostTable()
        first = detect_once(example_41_table, costs)
        second = detect_once(example_41_table, costs)
        assert first.deadlock_found
        assert not second.deadlock_found
        assert second.aborted == []

    def test_empty_table(self):
        result = detect_once(LockTable())
        assert not result.deadlock_found
        assert result.stats.transactions == 0

    def test_cprime_bounded_by_n(self):
        table, tids = build_reader_ladder(8)
        result = detect_once(table)
        assert result.stats.cycles_found <= result.stats.transactions

    def test_edge_counters_populated(self):
        table, _ = build_chain(10)
        result = detect_once(table)
        assert result.stats.transactions == 10
        assert result.stats.edges_total > 0
        assert result.stats.edges_examined >= result.stats.edges_total

    def test_allow_tdr2_false_forces_abort(self, example_41_table):
        result = detect_once(example_41_table, allow_tdr2=False)
        assert result.deadlock_found
        assert result.aborted  # no abort-free resolution available
        assert result.repositions == []

    def test_resolution_records_candidates(self, example_41_table):
        result = detect_once(example_41_table)
        resolution = result.resolutions[0]
        kinds = {type(c) for c in resolution.candidates}
        assert kinds == {AbortCandidate, RepositionCandidate}
        assert resolution.chosen in resolution.candidates

    def test_penalty_makes_repeated_tdr2_unattractive(self):
        """After enough TDR-2 delays the same ST transaction becomes too
        expensive and TDR-1 takes over — the anti-livelock rule."""
        costs = CostTable()
        for _ in range(6):
            costs.apply_delay_penalty(8)
        table = load_table(LockTable(), EXAMPLE_41)
        result = detect_once(table, costs)
        # cost(T8)/2 is now far above any unit abort cost.
        assert result.aborted  # TDR-1 selected instead

    def test_detector_handles_waiter_only_roots(self):
        # Roots that are unblocked holders terminate immediately.
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.S)
        result = detect_once(table)
        assert not result.deadlock_found


class TestStep3Sparing:
    def test_spared_transaction_keeps_locks(self, example_51_table):
        detect_once(example_51_table, CostTable({1: 6.0, 2: 4.0, 3: 1.0}))
        # T3 was spared: still holds R2 and now holds R1.
        assert example_51_table.held_by(3) == {"R1", "R2"}

    def test_aborted_transaction_fully_removed(self, example_51_table):
        detect_once(example_51_table, CostTable({1: 6.0, 2: 4.0, 3: 1.0}))
        assert example_51_table.held_by(2) == set()
        assert example_51_table.blocked_at(2) is None
