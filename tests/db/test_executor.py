"""The round-robin script executor."""

import pytest

from repro.core import costs as cost_policies
from repro.core.errors import ReproError
from repro.db.database import Database
from repro.db.executor import Executor, StallError
from repro.lockmgr.sharded import ShardedLockCore


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
        db = Database(core=ShardedLockCore(policy="continuous"))
        db.create_table("accounts", {"a": 100, "b": 50})
        ex = Executor(db, detect_every=None)
        self.transfer_scripts(ex)
        report = ex.run()
        assert report.commits == 2
        assert report.aborts == 1

    def test_restart_counter_carried_to_new_transaction(self):
        db = make_db()
        priced = []

        def cost(handle, now):
            priced.append((handle.tid, handle.restarts))
            return 1.0

        ex = Executor(db, detect_every=4, cost=cost)
        self.transfer_scripts(ex)
        ex.run()
        restarted = [s for s in ex._scripts if s.restarts]
        assert restarted
        # Its final attempt runs under a fresh tid, priced with the
        # restart count the handle carries across attempts.
        assert restarted[0].tid not in (1, 2)
        assert (restarted[0].tid, restarted[0].restarts) in priced


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


class TestPricing:
    def test_cost_policy_drives_victims(self):
        # t1 holds more locks than t2 when they deadlock: unit costs
        # abort t1 (the tie-break), locks-held costs the cheaper t2.
        restarts = {}
        for cost in (cost_policies.unit_cost, cost_policies.locks_held_cost):
            db = make_db()
            ex = Executor(db, detect_every=50, cost=cost)
            t1 = ex.submit(
                [("read", "accounts", "c"), ("write", "accounts", "a", 1),
                 ("work", 1.0), ("write", "accounts", "b", 1)],
                "t1",
            )
            t2 = ex.submit(
                [("write", "accounts", "b", 2), ("work", 1.0),
                 ("write", "accounts", "a", 2)],
                "t2",
            )
            assert ex.run().commits == 2
            restarts[cost] = (t1.restarts, t2.restarts)
        assert restarts[cost_policies.unit_cost] == (1, 0)
        assert restarts[cost_policies.locks_held_cost] == (0, 1)

    def test_refresh_costs_keeps_penalties(self):
        db = make_db()
        ex = Executor(db)
        handle = ex.submit([("read", "accounts", "a")])
        handle.tid = db.begin()
        db.core.costs.set_cost(handle.tid, 50.0)  # accumulated penalty
        ex._price()
        assert db.core.costs.cost(handle.tid) == 50.0
        db.core.costs.set_cost(handle.tid, 0.5)  # below the base: raised
        ex._price()
        assert db.core.costs.cost(handle.tid) == 1.0

    def test_locks_held_is_the_core_held_set(self):
        # A re-granted intention lock is one held lock, not two.
        db = make_db()
        ex = Executor(db, cost=cost_policies.locks_held_cost)
        handle = ex.submit(
            [("read", "accounts", "a"), ("read", "accounts", "b")]
        )
        handle.tid = db.begin()
        ex._execute(handle, handle.script[0])
        ex._execute(handle, handle.script[1])
        ex._price()
        assert handle.locks_held == len(db.core.holding(handle.tid)) == 4
        assert db.core.costs.cost(handle.tid) == 5.0

    def test_work_accounting(self):
        db = make_db()
        ex = Executor(db, cost=cost_policies.work_done_cost)
        handle = ex.submit([("work", 3.5)])
        handle.tid = db.begin()
        ex._execute(handle, handle.script[0])
        assert handle.work_done == 3.5
        ex._price()
        assert db.core.costs.cost(handle.tid) == 4.5

    def test_clock_counts_rounds(self):
        # ``now`` is the executor's round count and ``start_time`` the
        # round an attempt began in: the age cost reads their gap.
        db = make_db()
        seen = []

        def cost(handle, now):
            seen.append(cost_policies.age_cost(handle, now))
            return 1.0

        ex = Executor(db, detect_every=1, cost=cost)
        ex.submit([("work", 1.0), ("work", 1.0), ("read", "accounts", "a")])
        ex.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_continuous_mode_prices_before_each_step(self):
        db = Database(core=ShardedLockCore(policy="continuous"))
        db.create_table("accounts", {"a": 100, "b": 50})
        ex = Executor(db, detect_every=None, cost=cost_policies.work_done_cost)
        ex.submit(
            [("write", "accounts", "a", 90), ("work", 5.0),
             ("write", "accounts", "b", 60)],
            "dear",
        )
        cheap = ex.submit(
            [("write", "accounts", "b", 40), ("work", 1.0),
             ("write", "accounts", "a", 110)],
            "cheap",
        )
        report = ex.run()
        assert report.commits == 2
        assert cheap.restarts == 1
