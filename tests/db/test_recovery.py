"""Write-ahead logging and crash recovery."""

import pytest

from repro.db.database import Blocked
from repro.db.recovery import RecoverableDatabase
from repro.db.wal import LogRecord, WriteAheadLog, analyze, recover


def make_db() -> RecoverableDatabase:
    db = RecoverableDatabase()
    db.create_table("accounts", {"a": 100, "b": 50})
    return db


class TestLogging:
    def test_initial_rows_logged_as_loads(self):
        db = make_db()
        kinds = [r.kind for r in db.wal.records()]
        assert kinds == ["create", "load", "load"]

    def test_write_logs_begin_then_write(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        kinds = [r.kind for r in db.wal.records()]
        assert kinds[-2:] == ["begin", "write"]
        record = db.wal.records()[-1]
        assert record.before == 100 and record.after == 90
        assert record.existed

    def test_read_only_transaction_never_logs(self):
        db = make_db()
        txn = db.begin()
        db.read(txn, "accounts", "a")
        db.commit(txn)
        kinds = [r.kind for r in db.wal.records()]
        assert "begin" not in kinds and "commit" not in kinds

    def test_commit_logged_before_release(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.commit(txn)
        assert db.wal.records()[-1].kind == "commit"

    def test_abort_logged(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.abort(txn)
        assert db.wal.records()[-1].kind == "abort"
        assert db.read(db.begin(), "accounts", "a") == 100

    def test_new_key_logged_as_not_existed(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "carol", 7)
        record = db.wal.records()[-1]
        assert not record.existed and record.before is None


class TestAnalyze:
    def test_winners_and_losers(self):
        log = WriteAheadLog()
        log.log_begin(1)
        log.log_begin(2)
        log.log_begin(3)
        log.log_commit(1)
        log.log_abort(2)
        winners, losers = analyze(log)
        assert winners == {1}
        assert losers == {3}


class TestCrashRecovery:
    def test_committed_survives(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.commit(txn)
        restarted = db.simulate_crash()
        assert restarted.read(restarted.begin(), "accounts", "a") == 90

    def test_in_flight_rolled_back(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 0)
        db.write(txn, "accounts", "carol", 5)
        restarted = db.simulate_crash()  # no commit record: loser
        probe = restarted.begin()
        assert restarted.read(probe, "accounts", "a") == 100
        assert restarted.read(probe, "accounts", "carol") is None

    def test_mixed_winners_losers(self):
        db = make_db()
        winner, loser = db.begin(), db.begin()
        db.write(winner, "accounts", "a", 90)
        db.write(loser, "accounts", "b", 0)
        db.commit(winner)
        restarted = db.simulate_crash()
        probe = restarted.begin()
        assert restarted.read(probe, "accounts", "a") == 90
        assert restarted.read(probe, "accounts", "b") == 50

    def test_recovery_idempotent(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 5)
        first = db.recovered_contents()
        second = db.recovered_contents()
        assert first == second

    def test_empty_table_survives(self):
        db = RecoverableDatabase()
        db.create_table("empty")
        restarted = db.simulate_crash()
        assert restarted.keys("empty") == []

    def test_deadlock_victim_is_loser(self):
        db = make_db()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "accounts", "a", 1)
        db.write(t2, "accounts", "b", 2)
        with pytest.raises(Blocked):
            db.write(t1, "accounts", "b", 3)
        with pytest.raises(Blocked):
            db.write(t2, "accounts", "a", 4)
        db.core.detect()
        # The victim is not rolled back yet and the survivor is still in
        # flight: both are losers.  Crash now: both must be absent.
        restarted = db.simulate_crash()
        probe = restarted.begin()
        assert restarted.read(probe, "accounts", "a") == 100
        assert restarted.read(probe, "accounts", "b") == 50

    def test_abort_then_committed_rewrite_of_same_key(self):
        """An aborted transaction's undo applies at its abort record,
        not after redo: a later committed write to the same key must
        survive recovery.  (Found by the crash-at-every-sync-point
        property suite.)"""
        db = make_db()
        loser = db.begin()
        db.write(loser, "accounts", "a", 0)
        db.abort(loser)
        winner = db.begin()
        db.write(winner, "accounts", "a", 7)
        db.commit(winner)
        restarted = db.simulate_crash()
        assert restarted.read(restarted.begin(), "accounts", "a") == 7

    def test_abort_then_in_flight_rewrite_of_same_key(self):
        """Same shape, but the rewriter is itself a crash loser: both
        undos stack and the original value comes back."""
        db = make_db()
        first = db.begin()
        db.write(first, "accounts", "a", 0)
        db.abort(first)
        second = db.begin()
        db.write(second, "accounts", "a", 7)
        restarted = db.simulate_crash()  # no commit record: loser
        assert restarted.read(restarted.begin(), "accounts", "a") == 100

    def test_crash_preserves_log_for_second_crash(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.commit(txn)
        once = db.simulate_crash()
        twice = once.simulate_crash()
        assert twice.read(twice.begin(), "accounts", "a") == 90

    def test_restarted_database_does_not_reuse_logged_tids(self):
        """A restarted database hands out tids above every tid in its
        log: the log is keyed by tid, so a reused tid would inherit a
        dead transaction's commit record and its undone write would
        come back at the next recovery."""
        db = make_db()
        first = db.begin()
        db.write(first, "accounts", "a", 1)
        db.commit(first)
        db = db.simulate_crash()
        doomed = db.begin()
        assert doomed > first
        db.write(doomed, "accounts", "a", 999)
        db = db.simulate_crash()  # in flight: undone
        third = db.begin()
        db.write(third, "accounts", "b", 5)
        db.commit(third)
        db = db.simulate_crash()
        probe = db.begin()
        assert db.read(probe, "accounts", "a") == 1
        assert db.read(probe, "accounts", "b") == 5

    def test_work_after_recovery_logs_onward(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.commit(txn)
        restarted = db.simulate_crash()
        txn2 = restarted.begin()
        restarted.write(txn2, "accounts", "b", 60)
        restarted.commit(txn2)
        final = restarted.simulate_crash()
        probe = final.begin()
        assert final.read(probe, "accounts", "a") == 90
        assert final.read(probe, "accounts", "b") == 60


class TestSerialization:
    def test_jsonl_round_trip(self):
        db = make_db()
        txn = db.begin()
        db.write(txn, "accounts", "a", 90)
        db.commit(txn)
        text = db.wal.to_jsonl()
        reloaded = WriteAheadLog.from_jsonl(text)
        assert len(reloaded) == len(db.wal)
        assert recover(reloaded)["accounts"]["a"] == 90

    def test_record_round_trip(self):
        record = LogRecord("write", 3, "t", "k", 1, 2, True)
        assert LogRecord.from_json(record.to_json()) == record
