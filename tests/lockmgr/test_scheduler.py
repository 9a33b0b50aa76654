"""Section 3: FIFO scheduling, conversions, UPR and the grant sweep."""

import pytest

from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.events import Blocked, Granted
from repro.lockmgr.lock_table import LockTable

NL, IS, IX, S, SIX, X = (
    LockMode.NL,
    LockMode.IS,
    LockMode.IX,
    LockMode.S,
    LockMode.SIX,
    LockMode.X,
)


def req(table, tid, rid, mode):
    return scheduler.request(table, tid, rid, mode)


class TestNewRequests:
    def test_first_request_granted(self):
        table = LockTable()
        outcome = req(table, 1, "R", S)
        assert outcome.granted
        assert isinstance(outcome, Granted)
        assert outcome.immediate
        assert table.existing("R").total is S

    def test_compatible_request_granted(self):
        table = LockTable()
        req(table, 1, "R", IS)
        assert req(table, 2, "R", IX).granted
        assert table.existing("R").total is IX

    def test_incompatible_request_queued(self):
        table = LockTable()
        req(table, 1, "R", S)
        outcome = req(table, 2, "R", X)
        assert not outcome.granted
        assert isinstance(outcome, Blocked)
        assert not outcome.conversion
        assert table.blocked_at(2) == "R"
        assert table.blocked_in_queue(2)

    def test_fifo_even_when_compatible(self):
        # A compatible request behind a non-empty queue must wait: FIFO.
        table = LockTable()
        req(table, 1, "R", S)
        req(table, 2, "R", X)  # queued
        outcome = req(table, 3, "R", S)  # compatible with S but queue non-empty
        assert not outcome.granted
        assert [q.tid for q in table.existing("R").queue] == [2, 3]

    def test_request_while_blocked_rejected(self):
        table = LockTable()
        req(table, 1, "R", X)
        req(table, 2, "R", X)
        with pytest.raises(LockTableError):
            req(table, 2, "R2", S)

    def test_nl_not_requestable(self):
        with pytest.raises(LockTableError):
            req(LockTable(), 1, "R", NL)

    def test_total_mode_includes_queued_conversions_only(self):
        # Queue entries never contribute to the total mode.
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", X)
        assert table.existing("R").total is IS


class TestConversions:
    def test_covered_reconversion_is_immediate(self):
        table = LockTable()
        req(table, 1, "R", X)
        outcome = req(table, 1, "R", S)
        assert outcome.granted
        assert outcome.mode is X  # already covered, mode unchanged

    def test_grantable_conversion(self):
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IS)
        outcome = req(table, 1, "R", IX)  # IX compatible with IS holder
        assert outcome.granted
        assert table.existing("R").holder_entry(1).granted is IX
        assert table.existing("R").total is IX

    def test_blocked_conversion(self):
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IX)
        outcome = req(table, 1, "R", S)  # Conv(IS,S)=S conflicts with IX
        assert not outcome.granted
        assert outcome.conversion
        assert outcome.mode is S
        entry = table.existing("R").holder_entry(1)
        assert entry.granted is IS and entry.blocked is S
        assert table.blocked_at(1) == "R"
        assert not table.blocked_in_queue(1)

    def test_conversion_jumps_queue(self):
        # A grantable conversion is honored even while others queue.
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", SIX)  # queued: Comp(IS, SIX) holds? yes -> granted
        assert table.existing("R").is_held_by(2)
        req(table, 3, "R", X)  # queued
        outcome = req(table, 1, "R", IS)  # covered, immediate
        assert outcome.granted

    def test_example_31_reproduced_verbatim(self):
        """Example 3.1: T1(IS) re-requests S while T2 holds IX."""
        table = LockTable()
        req(table, 1, "R1", IS)
        req(table, 2, "R1", IX)
        assert table.existing("R1").total is IX
        req(table, 3, "R1", S)  # queued (S vs IX)
        req(table, 4, "R1", X)  # queued
        outcome = req(table, 1, "R1", S)
        assert not outcome.granted
        assert (
            str(table.existing("R1"))
            == "R1(SIX): Holder((T1, IS, S) (T2, IX, NL)) "
            "Queue((T3, S) (T4, X))"
        )

    def test_blocked_conversion_precedes_unblocked_holders(self):
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IX)
        req(table, 1, "R", S)  # blocks
        holders = table.existing("R").holders
        assert [h.tid for h in holders] == [1, 2]
        assert holders[0].is_blocked and not holders[1].is_blocked


class TestUPR:
    """The Upgrader Positioning Rule orders blocked conversions."""

    def _example_41_holders(self, first_blocker, second_blocker):
        """Four holders of R1 (T1 IX, T2 IS, T3 IX, T4 IS); blocked
        conversions issued in the given order.  Returns holder tids."""
        table = LockTable()
        req(table, 1, "R1", IX)
        req(table, 2, "R1", IS)
        req(table, 3, "R1", IX)
        req(table, 4, "R1", IS)
        req(table, first_blocker, "R1", S)
        req(table, second_blocker, "R1", S)
        return [h.tid for h in table.existing("R1").holders], table

    def test_example_41_order_t2_first(self):
        # T2 blocks first; T1's later conversion lands before it (UPR-2).
        order, _ = self._example_41_holders(2, 1)
        assert order == [1, 2, 3, 4]

    def test_example_41_order_t1_first(self):
        # T1 blocks first; T2's conversion cannot precede it (UPR-3).
        order, _ = self._example_41_holders(1, 2)
        assert order == [1, 2, 3, 4]

    def test_upr1_groups_compatible_blocked_modes(self):
        # Holders T1(IS), T2(IS), T3(IX), T4(IS).  T4's X conversion and
        # T1's S conversion block; T2's S conversion then groups with
        # T1's via UPR-1 (compatible blocked modes), landing just before
        # it, and both precede T4 via UPR-2.
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IS)
        req(table, 3, "R", IX)
        req(table, 4, "R", IS)
        assert not req(table, 4, "R", X).granted  # bm=X
        assert not req(table, 1, "R", S).granted  # bm=S, UPR-2 before T4
        assert not req(table, 2, "R", S).granted  # bm=S, UPR-1 before T1
        holders = [h.tid for h in table.existing("R").holders]
        assert holders == [2, 1, 4, 3]

    def test_conversion_ignores_other_blocked_modes(self):
        # The conversion grant check consults granted modes only: an S
        # upgrade sails past a waiting X upgrader whose bm conflicts.
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IS)
        assert not req(table, 2, "R", X).granted  # blocked on T1's IS
        assert req(table, 1, "R", S).granted  # S vs gm IS: granted

    def test_upr3_after_all_blocked_before_unblocked(self):
        table = LockTable()
        req(table, 1, "R", S)
        req(table, 2, "R", S)
        req(table, 3, "R", IS)
        req(table, 1, "R", X)  # blocked: bm=X
        req(table, 2, "R", X)  # blocked: bm=X, not compatible with bm1,
        # gm1=S not compatible with bm2 -> UPR-3: after T1, before T3.
        holders = [h.tid for h in table.existing("R").holders]
        assert holders == [1, 2, 3]

    def test_theorem_31_earlier_blocked_means_later_blocked(self):
        """Theorem 3.1: with UPR ordering, if the first blocked
        conversion cannot be granted neither can any later one."""
        order, table = self._example_41_holders(2, 1)
        state = table.existing("R1")
        first, second = state.blocked_holders()[:2]
        assert not scheduler.conversion_grantable(state, first)
        assert not scheduler.conversion_grantable(state, second)


class TestSweep:
    def test_release_grants_fifo_prefix(self):
        table = LockTable()
        req(table, 1, "R", X)
        req(table, 2, "R", S)
        req(table, 3, "R", S)
        req(table, 4, "R", X)
        grants = scheduler.release_all(table, 1)
        assert [g.tid for g in grants] == [2, 3]
        state = table.existing("R")
        assert state.is_held_by(2) and state.is_held_by(3)
        assert [q.tid for q in state.queue] == [4]

    def test_release_grants_blocked_conversion_first(self):
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IX)
        req(table, 1, "R", S)  # conversion blocked by T2's IX
        grants = scheduler.release_all(table, 2)
        assert [g.tid for g in grants] == [1]
        entry = table.existing("R").holder_entry(1)
        assert entry.granted is S and not entry.is_blocked
        assert table.blocked_at(1) is None

    def test_sweep_stops_at_first_unready_conversion(self):
        # Theorem 3.1 justifies stopping: build two blocked conversions
        # where neither can go after the release of an unrelated holder.
        table = LockTable()
        req(table, 1, "R", S)
        req(table, 2, "R", S)
        req(table, 3, "R", IS)
        req(table, 1, "R", X)
        req(table, 2, "R", X)
        grants = scheduler.release_all(table, 3)  # IS holder leaves
        assert grants == []  # T1 blocked by T2's S and vice versa

    def test_conversion_grant_updates_nothing_for_total(self):
        # Granting a conversion swaps bm into gm; the total mode already
        # included the blocked mode, so it must not change.
        table = LockTable()
        req(table, 1, "R", IS)
        req(table, 2, "R", IX)
        req(table, 1, "R", S)
        total_before = table.existing("R").total
        scheduler.release_all(table, 2)
        assert table.existing("R").total is Conv_IS_S()


def Conv_IS_S():
    from repro.core.modes import convert

    return convert(IS, S)


class TestSweepQueuePlacement:
    def test_queue_grant_inserted_after_blocked_prefix(self):
        # Example 4.1's modified R2: T9 granted from the queue appears
        # before the already-present unblocked holder T7.
        table = LockTable()
        req(table, 7, "R2", IS)
        req(table, 8, "R2", X)
        req(table, 9, "R2", IX)
        scheduler.remove_waiter(table, 8, "R2")  # T8 leaves the front
        state = table.existing("R2")
        assert [h.tid for h in state.holders] == [9, 7]

    def test_remove_middle_waiter_no_grants(self):
        table = LockTable()
        req(table, 1, "R", X)
        req(table, 2, "R", S)
        req(table, 3, "R", S)
        grants = scheduler.remove_waiter(table, 3, "R")
        assert grants == []
        assert [q.tid for q in table.existing("R").queue] == [2]

    def test_remove_first_waiter_triggers_sweep(self):
        table = LockTable()
        req(table, 1, "R", S)
        req(table, 2, "R", X)
        req(table, 3, "R", S)
        grants = scheduler.remove_waiter(table, 2, "R")
        assert [g.tid for g in grants] == [3]

    def test_resource_dropped_when_free(self):
        table = LockTable()
        req(table, 1, "R", X)
        scheduler.release_all(table, 1)
        assert "R" not in table


class TestReleaseAll:
    def test_releases_queue_and_holders(self):
        table = LockTable()
        req(table, 1, "A", X)
        req(table, 1, "B", S)
        req(table, 2, "A", S)  # queued behind X
        grants = scheduler.release_all(table, 1)
        assert [g.tid for g in grants] == [2]
        assert table.held_by(1) == set()
        assert "B" not in table

    def test_release_blocked_transaction(self):
        table = LockTable()
        req(table, 1, "A", X)
        req(table, 2, "A", X)  # blocked
        scheduler.release_all(table, 2)
        assert table.blocked_at(2) is None
        assert [q.tid for q in table.existing("A").queue] == []

    def test_release_unknown_is_noop(self):
        table = LockTable()
        assert scheduler.release_all(table, 42) == []


class TestRepositionQueue:
    def test_example_41_repositioning(self, example_41_table):
        scheduler.reposition_queue(example_41_table, "R2", [9, 3], [8])
        queue = [q.tid for q in example_41_table.existing("R2").queue]
        assert queue == [9, 3, 8, 4]

    def test_rest_of_queue_untouched(self, example_41_table):
        scheduler.reposition_queue(example_41_table, "R2", [9, 3], [8])
        state = example_41_table.existing("R2")
        assert state.queue[-1].tid == 4

    def test_mismatched_sets_rejected(self, example_41_table):
        with pytest.raises(LockTableError):
            scheduler.reposition_queue(example_41_table, "R2", [9], [4])
