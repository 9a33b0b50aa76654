"""The lock-table invariant verifier."""

import pytest
from hypothesis import given, settings

from repro.core.modes import LockMode
from repro.core.requests import HolderEntry, QueueEntry
from repro.core.verify import (
    InconsistentTableError,
    assert_consistent,
    verify_table,
)
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from tests.properties.test_invariants import apply_ops, ops_strategy


def clean_table() -> LockTable:
    table = LockTable()
    scheduler.request(table, 1, "R", LockMode.S)
    scheduler.request(table, 2, "R", LockMode.X)
    return table


class TestCleanTables:
    def test_empty_table(self):
        assert verify_table(LockTable()) == []

    def test_scheduler_built_table(self, example_41_table):
        assert verify_table(example_41_table) == []

    def test_assert_consistent_passes(self):
        assert_consistent(clean_table())

    @given(ops=ops_strategy)
    @settings(max_examples=60)
    def test_random_reachable_tables_verify(self, ops):
        assert verify_table(apply_ops(ops)) == []


class TestCorruptions:
    def test_wrong_total_mode(self):
        table = clean_table()
        table.existing("R").total = LockMode.NL
        rules = {v.rule for v in verify_table(table)}
        assert "total-mode" in rules

    def test_incompatible_coholders(self):
        table = clean_table()
        table.existing("R").holders.append(HolderEntry(3, LockMode.X))
        table.note_holder(3, "R")
        table.existing("R").recompute_total()
        rules = {v.rule for v in verify_table(table)}
        assert "lock-safety" in rules

    def test_blocked_after_unblocked(self):
        table = clean_table()
        state = table.existing("R")
        state.holders.append(HolderEntry(3, LockMode.IS, LockMode.SIX))
        table.note_holder(3, "R")
        table.note_blocked(3, "R", in_queue=False)
        state.recompute_total()
        rules = {v.rule for v in verify_table(table)}
        assert "blocked-prefix" in rules

    def test_nl_queue_mode(self):
        table = clean_table()
        table.existing("R").enqueue(QueueEntry(9, LockMode.NL))
        table.note_blocked(9, "R", in_queue=True)
        rules = {v.rule for v in verify_table(table)}
        assert "queue-mode" in rules

    def test_holder_also_queued(self):
        table = clean_table()
        table.existing("R").enqueue(QueueEntry(1, LockMode.X))
        rules = {v.rule for v in verify_table(table)}
        assert "holder-queued" in rules

    def test_axiom_1_violation(self):
        table = clean_table()
        other = table.resource("Q")
        other.holders.append(HolderEntry(9, LockMode.X))
        table.note_holder(9, "Q")
        other.recompute_total()
        # T2 also waits at Q — two waits at once.
        other.enqueue(QueueEntry(2, LockMode.S))
        rules = {v.rule for v in verify_table(table)}
        assert "axiom-1" in rules

    def test_stale_blocked_index(self):
        table = clean_table()
        table.note_blocked(42, "R", in_queue=True)  # index only, no state
        rules = {v.rule for v in verify_table(table)}
        assert "index-stale" in rules

    def test_missing_held_index(self):
        table = clean_table()
        table.forget_holder(1, "R")
        rules = {v.rule for v in verify_table(table)}
        assert "index-held" in rules

    def test_assert_consistent_raises_with_details(self):
        table = clean_table()
        table.existing("R").total = LockMode.NL
        with pytest.raises(InconsistentTableError) as excinfo:
            assert_consistent(table)
        assert excinfo.value.violations
        assert "total-mode" in str(excinfo.value)

    def test_violation_str(self):
        table = clean_table()
        table.existing("R").total = LockMode.NL
        violation = verify_table(table)[0]
        assert "R" in str(violation)
