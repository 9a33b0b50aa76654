"""The mini database: locking discipline, undo, rollback."""

import pytest

from repro.core.errors import (
    ReproError,
    TransactionAborted,
    TransactionStateError,
    UnknownResourceError,
)
from repro.core.modes import LockMode
from repro.db.database import Blocked, Database
from repro.lockmgr.sharded import ShardedLockCore


def make_db() -> Database:
    db = Database()
    db.create_table("accounts", {"alice": 100, "bob": 50})
    return db


class TestSchema:
    def test_create_table_builds_hierarchy(self):
        db = make_db()
        assert "db.accounts" in db.hierarchy
        assert "db.accounts[alice]" in db.hierarchy
        assert db.hierarchy.parent("db.accounts") == "db"

    def test_duplicate_table_rejected(self):
        db = make_db()
        with pytest.raises(ReproError):
            db.create_table("accounts")

    def test_unknown_table_rejected(self):
        db = make_db()
        txn = db.begin()
        with pytest.raises(UnknownResourceError):
            db.read(txn, "missing", "k")

    def test_keys(self):
        assert set(make_db().keys("accounts")) == {"alice", "bob"}


class TestOperations:
    def test_read_takes_is_path_and_s_record(self):
        db = make_db()
        txn = db.begin()
        assert db.read(txn, "accounts", "alice") == 100
        held = db.core.holding(txn)
        assert held["db"] is LockMode.IS
        assert held["db.accounts"] is LockMode.IS
        assert held["db.accounts[alice]"] is LockMode.S

    def test_read_missing_key_returns_none(self):
        db = make_db()
        assert db.read(db.begin(), "accounts", "carol") is None

    def test_write_takes_ix_path_and_x_record(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "alice", 90)
        held = db.core.holding(txn)
        assert held["db.accounts"] is LockMode.IX
        assert held["db.accounts[alice]"] is LockMode.X

    def test_write_new_key_registers_resource(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "carol", 10)
        assert "db.accounts[carol]" in db.hierarchy
        assert db.read(txn, "accounts", "carol") == 10

    def test_scan_takes_table_s(self):
        db = make_db()
        txn = db.begin()
        rows = db.scan(txn, "accounts")
        assert rows == {"alice": 100, "bob": 50}
        assert db.core.holding(txn)[
            "db.accounts"
        ] is LockMode.S

    def test_scan_for_update_takes_six(self):
        db = make_db()
        txn = db.begin()
        db.scan_for_update(txn, "accounts")
        assert db.core.holding(txn)[
            "db.accounts"
        ] is LockMode.SIX

    def test_scan_then_update_is_conversion(self):
        db = make_db()
        txn = db.begin()
        db.scan_for_update(txn, "accounts")
        db.write(txn, "accounts", "alice", 90)  # table IX covered by SIX
        db.commit(txn)
        assert db.read(db.begin(), "accounts", "alice") == 90


class TestIsolation:
    def test_writer_blocks_reader_of_same_record(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked):
            db.read(t2, "accounts", "alice")

    def test_readers_share(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        assert db.read(t1, "accounts", "alice") == 100
        assert db.read(t2, "accounts", "alice") == 100

    def test_scan_blocks_writer(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.scan(t1, "accounts")
        with pytest.raises(Blocked):
            db.write(t2, "accounts", "bob", 0)

    def test_strict_2pl_holds_until_commit(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        db.commit(t1)
        assert db.read(t2, "accounts", "alice") == 90


class TestUndo:
    def test_abort_rolls_back_writes(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "alice", 0)
        db.write(txn, "accounts", "carol", 5)
        db.abort(txn)
        fresh = db.begin()
        assert db.read(fresh, "accounts", "alice") == 100
        assert db.read(fresh, "accounts", "carol") is None

    def test_rollback_order_is_reverse(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "alice", 1)
        db.write(txn, "accounts", "alice", 2)
        db.abort(txn)
        assert db.read(db.begin(), "accounts", "alice") == 100

    def test_commit_discards_undo(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "alice", 90)
        db.commit(txn)
        db.rollback(txn)  # no-op after commit
        assert db.read(db.begin(), "accounts", "alice") == 90

    def test_victim_operation_raises_transaction_aborted(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        db.write(t2, "accounts", "bob", 40)
        with pytest.raises(Blocked):
            db.write(t1, "accounts", "bob", 60)
        with pytest.raises(Blocked):
            db.write(t2, "accounts", "alice", 110)
        result = db.core.detect()
        assert result.deadlock_found
        victim = result.aborted[0]
        # The victim's next operation reports the abort and rolls back.
        with pytest.raises(TransactionAborted):
            db.read(victim, "accounts", "alice")


def cross_writes(db):
    """t1 and t2 each write one account, then each other's: a
    deadlock with both blocked."""
    t1, t2 = db.begin(), db.begin()
    db.write(t1, "accounts", "alice", 90)
    db.write(t2, "accounts", "bob", 40)
    with pytest.raises(Blocked):
        db.write(t1, "accounts", "bob", 60)
    with pytest.raises(Blocked):
        db.write(t2, "accounts", "alice", 110)
    return t1, t2


class TestTransactions:
    def test_begin_assigns_increasing_tids(self):
        db = make_db()
        assert [db.begin() for _ in range(3)] == [1, 2, 3]

    def test_new_tid_is_neither_blocked_nor_aborted(self):
        db = make_db()
        tid = db.begin()
        assert not db.core.is_blocked(tid)
        assert not db.core.was_aborted(tid)
        assert db.core.holding(tid) == {}

    def test_block_is_read_from_core(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked) as blocked:
            db.read(t2, "accounts", "alice")
        assert blocked.value.rid == "db.accounts[alice]"
        assert db.core.blocked_at(t2) == "db.accounts[alice]"

    def test_block_and_grant(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.scan(t1, "accounts")
        with pytest.raises(Blocked) as blocked:
            db.write(t2, "accounts", "bob", 0)
        assert blocked.value.rid == "db.accounts"  # the IX intent waits
        db.commit(t1)
        assert db.core.blocked_at(t2) is None
        db.write(t2, "accounts", "bob", 0)  # resumes the MGL path
        db.commit(t2)

    def test_commit_wakes_waiters(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked):
            db.read(t2, "accounts", "alice")
        assert db.core.is_blocked(t2)
        db.commit(t1)
        assert not db.core.is_blocked(t2)
        assert db.core.holding(t2)["db.accounts[alice]"] is LockMode.S

    def test_abort_releases_locks(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked):
            db.write(t2, "accounts", "alice", 80)
        db.abort(t1)
        assert db.core.holding(t1) == {}
        assert db.core.holding(t2)["db.accounts[alice]"] is LockMode.X

    def test_abort_of_blocked_tid_clears_its_wait(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked):
            db.read(t2, "accounts", "alice")
        db.abort(t2)
        assert db.core.blocked_at(t2) is None
        assert db.core.holding(t2) == {}

    def test_request_from_finished_tid_rejected(self):
        db = make_db()
        tid = db.begin()
        db.commit(tid)
        with pytest.raises(TransactionStateError):
            db.read(tid, "accounts", "alice")

    def test_commit_from_finished_tid_rejected(self):
        db = make_db()
        tid = db.begin()
        db.write(tid, "accounts", "alice", 90)
        db.abort(tid)
        with pytest.raises(TransactionStateError):
            db.commit(tid)

    def test_unknown_tid_rejected(self):
        db = make_db()
        with pytest.raises(TransactionStateError):
            db.read(99, "accounts", "alice")

    def test_commit_while_blocked_rejected(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "alice", 90)
        with pytest.raises(Blocked):
            db.read(t2, "accounts", "alice")
        with pytest.raises(TransactionStateError):
            db.commit(t2)
        assert db.core.is_blocked(t2)  # the refused commit changed nothing


class TestDeadlockVictims:
    def test_periodic_run_aborts_victim(self):
        db = make_db()
        t1, t2 = cross_writes(db)
        assert db.core.deadlocked()
        result = db.core.detect()
        assert result.deadlock_found
        assert len(result.aborted) == 1
        assert db.core.was_aborted(result.aborted[0])
        assert not db.core.deadlocked()

    def test_survivor_was_woken(self):
        db = make_db()
        t1, t2 = cross_writes(db)
        (victim,) = db.core.detect().aborted
        survivor = t2 if victim == t1 else t1
        assert not db.core.is_blocked(survivor)
        db.commit(survivor)

    def test_victim_abort_seen_at_next_operation(self):
        db = make_db()
        t1, t2 = cross_writes(db)
        (victim,) = db.core.detect().aborted
        with pytest.raises(TransactionAborted):
            db.commit(victim)
        # Seeing the abort ended it: rolled back, lock-free, finished.
        assert not db.core.was_aborted(victim)
        assert db.core.holding(victim) == {}
        assert victim not in db._undo
        with pytest.raises(TransactionStateError):
            db.read(victim, "accounts", "alice")

    def test_continuous_mode_raises_on_victim(self):
        db = Database(core=ShardedLockCore(policy="continuous"))
        db.create_table("accounts", {"alice": 100, "bob": 50})
        t1, t2 = db.begin(), db.begin()
        # t2 is the dearer one, so closing the cycle makes the
        # requester itself the cheaper victim.
        db.core.costs.set_cost(t1, 10.0)
        db.write(t1, "accounts", "alice", 90)
        db.write(t2, "accounts", "bob", 40)
        with pytest.raises(Blocked):
            db.write(t1, "accounts", "bob", 60)
        with pytest.raises(TransactionAborted):
            db.write(t2, "accounts", "alice", 110)
        # The victim rolled back on the spot and the survivor holds bob.
        assert db._tables["accounts"]["bob"] == 50
        assert not db.core.is_blocked(t1)
        assert db.core.holding(t1)["db.accounts[bob]"] is LockMode.X
