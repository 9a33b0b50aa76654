"""LockTable bookkeeping and the Axiom-1 guarantee."""

import pytest

from repro.core.errors import LockTableError, UnknownResourceError
from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable


class TestResourceAccess:
    def test_resource_created_on_demand(self):
        table = LockTable()
        state = table.resource("R")
        assert state.rid == "R"
        assert "R" in table

    def test_existing_raises_for_unknown(self):
        with pytest.raises(UnknownResourceError):
            LockTable().existing("missing")

    def test_drop_if_free(self):
        table = LockTable()
        table.resource("R")
        table.drop_if_free("R")
        assert "R" not in table

    def test_drop_keeps_populated(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.S)
        table.drop_if_free("R")
        assert "R" in table

    def test_len_and_ids(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        scheduler.request(table, 1, "B", LockMode.S)
        assert len(table) == 2
        assert table.resource_ids() == ["A", "B"]


class TestIndexes:
    def test_held_by_tracks_grants(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        scheduler.request(table, 1, "B", LockMode.IX)
        assert table.held_by(1) == {"A", "B"}

    def test_blocked_at_set_and_cleared(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "A", LockMode.X)
        assert table.blocked_at(2) == "A"
        assert table.is_blocked(2)
        scheduler.release_all(table, 1)
        assert table.blocked_at(2) is None

    def test_axiom_1_single_wait(self):
        """No transaction may wait at two places at once."""
        table = LockTable()
        table.note_blocked(1, "A", in_queue=True)
        with pytest.raises(LockTableError):
            table.note_blocked(1, "B", in_queue=True)

    def test_renoting_same_block_is_fine(self):
        table = LockTable()
        table.note_blocked(1, "A", in_queue=True)
        table.note_blocked(1, "A", in_queue=False)
        assert not table.blocked_in_queue(1)

    def test_blocked_tids(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "A", LockMode.X)
        scheduler.request(table, 3, "A", LockMode.X)
        assert sorted(table.blocked_tids()) == [2, 3]

    def test_active_tids(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.X)
        scheduler.request(table, 2, "A", LockMode.X)
        assert table.active_tids() == {1, 2}

    def test_forget_holder_cleans_empty_sets(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        table.forget_holder(1, "A")
        assert table.held_by(1) == set()


class TestSnapshot:
    def test_snapshot_is_deep(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        snap = table.snapshot()
        snap[0].holders.clear()
        assert table.existing("A").is_held_by(1)

    def test_str_lists_resources(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        assert str(table).startswith("A(S)")


class TestFirstLockSequence:
    def test_numbers_follow_creation_and_die_with_the_entry(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        scheduler.request(table, 1, "B", LockMode.S)
        assert table.sequence_of("A") < table.sequence_of("B")
        scheduler.release_all(table, 1)
        assert table.sequence_of("A") is None
        assert table._seq == {}
        # Re-locking re-enters the order at the end, like the dict does.
        scheduler.request(table, 2, "B", LockMode.S)
        scheduler.request(table, 2, "A", LockMode.S)
        assert table.sequence_of("B") < table.sequence_of("A")
        assert table.resource_ids() == ["B", "A"]

    def test_tables_sharing_a_counter_interleave(self):
        from repro.lockmgr.lock_table import FirstLockSequence

        shared = FirstLockSequence()
        left, right = LockTable(shared), LockTable(shared)
        scheduler.request(left, 1, "A", LockMode.S)
        scheduler.request(right, 1, "B", LockMode.S)
        scheduler.request(left, 1, "C", LockMode.S)
        assert [
            table.sequence_of(rid)
            for table, rid in ((left, "A"), (right, "B"), (left, "C"))
        ] == [0, 1, 2]

    def test_restore_moves_the_local_counter_past_the_value(self):
        table = LockTable()
        scheduler.request(table, 1, "A", LockMode.S)
        table.restore_sequence("A", 41)
        scheduler.request(table, 1, "B", LockMode.S)
        assert table.sequence_of("A") == 41
        assert table.sequence_of("B") == 42


class TestWaitingResources:
    def test_only_resources_somebody_is_blocked_at(self):
        table = LockTable()
        for index in range(50):
            scheduler.request(table, 100 + index, "idle{}".format(index),
                              LockMode.S)
        assert table.waiting_resources() == []
        scheduler.request(table, 1, "Q", LockMode.X)
        scheduler.request(table, 2, "C", LockMode.S)
        scheduler.request(table, 3, "C", LockMode.S)
        assert not scheduler.request(table, 4, "Q", LockMode.S).granted
        assert not scheduler.request(table, 2, "C", LockMode.X).granted
        # A queue at Q, a blocked conversion at C — first-lock order.
        assert [s.rid for s in table.waiting_resources()] == ["Q", "C"]
        scheduler.release_all(table, 1)
        assert [s.rid for s in table.waiting_resources()] == ["C"]

    def test_matches_a_table_walk(self):
        table = LockTable()
        for tid, rid, mode in [
            (1, "A", LockMode.X), (2, "B", LockMode.S), (3, "B", LockMode.S),
            (4, "A", LockMode.S), (5, "D", LockMode.X), (2, "B", LockMode.X),
            (6, "A", LockMode.X),
        ]:
            scheduler.request(table, tid, rid, mode)
        walked = [
            state
            for state in table.resources()
            if state.queue or any(h.is_blocked for h in state.holders)
        ]
        assert table.waiting_resources() == walked
