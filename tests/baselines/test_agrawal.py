"""Agrawal/Carey/DeWitt periodic detection — including the delayed-
detection flaw the paper criticizes (experiment X1's mechanism)."""

from repro.baselines.agrawal import (
    AgrawalPolicy,
    find_cycles,
    functional_graph,
    representative_blocker,
)
from repro.baselines.wfg import has_deadlock
from repro.core.modes import LockMode
from repro.core.notation import parse_resource
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.analysis.scenarios import build_chain, build_reader_ladder, build_ring

from .host import hosted


class TestRepresentative:
    def test_first_conflicting_holder(self):
        state = parse_resource(
            "R: Holder((T1, IS, NL) (T2, X, NL)) Queue((T3, S))"
        )
        # T3's S conflicts with T2's X only; representative is T2.
        assert representative_blocker(state, 3) == 2

    def test_single_reader_represents_writer(self):
        state = parse_resource(
            "R: Holder((T1, S, NL) (T2, S, NL)) Queue((T3, X))"
        )
        # Both readers block T3; only T1 (the first) is recorded.
        assert representative_blocker(state, 3) == 1

    def test_queue_predecessor_fallback(self):
        state = parse_resource(
            "R: Holder((T1, IS, NL)) Queue((T2, X) (T3, IX))"
        )
        # T3's IX is compatible with the IS holder; it waits for the
        # queue predecessor T2.
        assert representative_blocker(state, 3) == 2

    def test_blocked_conversion_representative(self):
        state = parse_resource("R: Holder((T1, IS, S) (T2, IX, NL)) Queue()")
        assert representative_blocker(state, 1) == 2

    def test_unblocked_holder_has_none(self):
        state = parse_resource("R: Holder((T1, IS, NL)) Queue()")
        assert representative_blocker(state, 1) is None


class TestFunctionalGraph:
    def test_at_most_one_edge_per_transaction(self):
        table, _ = build_reader_ladder(4)
        graph = functional_graph(table.snapshot())
        assert all(isinstance(v, int) for v in graph.values())

    def test_find_cycles_on_ring(self):
        table, _ = build_ring(4)
        cycles = find_cycles(functional_graph(table.snapshot()))
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [1, 2, 3, 4]

    def test_no_cycle_on_chain(self):
        table, _ = build_chain(6)
        assert find_cycles(functional_graph(table.snapshot())) == []

    def test_rho_shape_handled(self):
        # A tail leading into a cycle (rho): tail vertices excluded.
        waits = {1: 2, 2: 3, 3: 2}
        cycles = find_cycles(waits)
        assert cycles == [[2, 3]]


class TestDelayedDetection:
    """The paper's Section-1 criticism, demonstrated."""

    def _partial_ladder(self) -> LockTable:
        """Two readers hold HOT; the writer waits on both; only the
        SECOND reader is deadlocked with the writer.  The representative
        edge points at reader 1, so Agrawal sees no cycle although the
        system is deadlocked through reader 2."""
        table = LockTable()
        scheduler.request(table, 1, "HOT", LockMode.S)
        scheduler.request(table, 2, "HOT", LockMode.S)
        scheduler.request(table, 3, "P", LockMode.X)
        scheduler.request(table, 3, "HOT", LockMode.X)  # waits on both readers
        scheduler.request(table, 2, "P", LockMode.S)  # closes cycle via T2
        return table

    def test_ground_truth_is_deadlocked(self):
        assert has_deadlock(self._partial_ladder())

    def test_agrawal_misses_the_cycle(self):
        core = hosted(self._partial_ladder(), AgrawalPolicy())
        assert core.detect().aborted == []  # invisible to the reduced graph
        assert has_deadlock(core.table)

    def test_park_detects_it(self):
        from repro.core.detection import detect_once

        table = self._partial_ladder()
        result = detect_once(table)
        assert result.deadlock_found

    def test_detection_after_representative_rotates(self):
        """Chin's point: once reader 1 commits, the representative
        becomes reader 2 and the cycle finally surfaces."""
        table = self._partial_ladder()
        scheduler.release_all(table, 1)
        core = hosted(table, AgrawalPolicy())
        assert core.detect().aborted  # now detected (late)
        assert not has_deadlock(core.table)


class TestStrategy:
    def test_periodic_flag(self):
        assert AgrawalPolicy().wants_periodic

    def test_resolves_full_ladder(self):
        # When every reader is deadlocked, even the reduced graph has a
        # cycle through the representative; repeated passes resolve it.
        table, _ = build_reader_ladder(3)
        core = hosted(table, AgrawalPolicy())
        result = core.detect()
        assert result.aborted
        assert result.stats.cycles_found == len(result.aborted)
        assert not has_deadlock(core.table)
        assert all(core.was_aborted(tid) for tid in result.aborted)

    def test_min_cost_victim_in_cycle(self):
        table, _ = build_ring(3)
        core = hosted(
            table, AgrawalPolicy(), CostTable({1: 5.0, 2: 0.5, 3: 5.0})
        )
        assert core.detect().aborted[0] == 2
