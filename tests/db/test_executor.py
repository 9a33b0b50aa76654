"""The round-robin script executor."""

import pytest

from repro.core.errors import ReproError
from repro.db.database import Database
from repro.db.executor import Executor, StallError


def make_db():
    db = Database()
    db.create_table("accounts", {"a": 100, "b": 50, "c": 25})
    return db


class TestBasicExecution:
    def test_single_script_commits(self):
        db = make_db()
        ex = Executor(db)
        handle = ex.submit([("read", "accounts", "a")])
        report = ex.run()
        assert handle.committed
        assert report.commits == 1
        assert handle.results == [100]

    def test_commit_appended_if_missing(self):
        db = make_db()
        ex = Executor(db)
        handle = ex.submit([("read", "accounts", "a")])
        assert handle.script[-1] == ("commit",)

    def test_unknown_operation_rejected(self):
        db = make_db()
        ex = Executor(db)
        ex.submit([("fly", "accounts")])
        with pytest.raises(ReproError):
            ex.run()

    def test_serial_scripts_interleave(self):
        db = make_db()
        ex = Executor(db)
        ex.submit([("write", "accounts", "a", 1)], "w1")
        ex.submit([("read", "accounts", "b")], "r1")
        report = ex.run()
        assert report.commits == 2
        assert ex.results()["r1"] == [50]

    def test_results_by_label(self):
        db = make_db()
        ex = Executor(db)
        ex.submit([("scan", "accounts")], "scanner")
        ex.run()
        assert ex.results()["scanner"][0]["c"] == 25


class TestDeadlockHandling:
    def transfer_scripts(self, ex):
        ex.submit(
            [("write", "accounts", "a", 90), ("work", 1.0),
             ("write", "accounts", "b", 60)],
            "t1",
        )
        ex.submit(
            [("write", "accounts", "b", 40), ("work", 1.0),
             ("write", "accounts", "a", 110)],
            "t2",
        )

    def test_transfer_deadlock_resolved_and_both_commit(self):
        db = make_db()
        ex = Executor(db, detect_every=4)
        self.transfer_scripts(ex)
        report = ex.run()
        assert report.commits == 2
        assert report.aborts == 1
        assert report.restarts == 1
        assert report.deadlocks_resolved >= 1

    def test_final_state_is_serializable_outcome(self):
        db = make_db()
        ex = Executor(db, detect_every=4)
        self.transfer_scripts(ex)
        ex.run()
        data = db._tables["accounts"]
        # One of the two serial orders, not a lost-update mixture.
        assert (data["a"], data["b"]) in {(90, 60), (110, 40)}

    def test_stall_detection_without_detector(self):
        db = make_db()
        ex = Executor(db, detect_every=None, restart_victims=False)
        self.transfer_scripts(ex)
        with pytest.raises(StallError):
            ex.run()

    def test_no_restart_mode_gives_up(self):
        db = make_db()
        ex = Executor(db, detect_every=4, restart_victims=False)
        self.transfer_scripts(ex)
        report = ex.run()
        assert report.commits == 1
        gave_up = [s for s in ex._scripts if s.gave_up]
        assert len(gave_up) == 1

    def test_continuous_mode_resolves_inline(self):
        db = Database(
            transactions=__import__(
                "repro.txn.manager", fromlist=["TransactionManager"]
            ).TransactionManager(policy="continuous")
        )
        db.create_table("accounts", {"a": 100, "b": 50})
        ex = Executor(db, detect_every=None)
        self.transfer_scripts(ex)
        report = ex.run()
        assert report.commits == 2
        assert report.aborts == 1

    def test_restart_counter_carried_to_new_transaction(self):
        db = make_db()
        ex = Executor(db, detect_every=4)
        self.transfer_scripts(ex)
        ex.run()
        restarted = [s for s in ex._scripts if s.restarts]
        assert restarted
        # Its final Transaction object carries the restart count.
        assert restarted[0].txn.restarts == restarted[0].restarts


class TestThreeWayDeadlock:
    def test_ring_of_three(self):
        db = make_db()
        ex = Executor(db, detect_every=5)
        ex.submit([("write", "accounts", "a", 1), ("work", 1.0),
                   ("write", "accounts", "b", 1)])
        ex.submit([("write", "accounts", "b", 2), ("work", 1.0),
                   ("write", "accounts", "c", 2)])
        ex.submit([("write", "accounts", "c", 3), ("work", 1.0),
                   ("write", "accounts", "a", 3)])
        report = ex.run()
        assert report.commits == 3
        assert report.aborts >= 1
