"""Integration: the whole stack working together."""

import random
from types import SimpleNamespace

import pytest

from repro.baselines.wfg import has_deadlock
from repro.core import costs as cost_policies
from repro.core.modes import LockMode
from repro.db.database import Database
from repro.db.executor import Executor
from repro.lockmgr.sharded import ShardedLockCore


class TestPaperExamplesThroughTransactionLayer:
    def test_example_51_with_transaction_manager(self):
        """Example 5.1 driven through the core by tid, costs set by the
        work-based function so the paper's 6/4/1 ordering holds."""
        core = ShardedLockCore()
        work = {1: 5.0, 2: 3.0, 3: 0.0}  # costs 6, 4, 1
        for tid, done in work.items():
            record = SimpleNamespace(work_done=done)
            core.costs.set_cost(tid, cost_policies.work_done_cost(record, 0.0))
        assert core.lock(1, "R1", LockMode.S).granted
        assert core.lock(2, "R2", LockMode.S).granted
        assert core.lock(3, "R2", LockMode.S).granted
        assert not core.lock(2, "R1", LockMode.X).granted
        assert not core.lock(3, "R1", LockMode.S).granted
        assert not core.lock(1, "R2", LockMode.X).granted
        assert core.deadlocked()
        result = core.detect()
        assert result.aborted == [2]
        assert result.spared == [3]
        assert core.was_aborted(2)
        assert not core.is_blocked(3)
        assert core.blocked_at(1) == "R2"  # still waits behind 3's S
        # 3 finishing lets 1 complete.
        core.finish(3)
        assert not core.is_blocked(1)
        core.finish(1)

    def test_conversion_deadlock_through_transactions(self):
        core = ShardedLockCore()
        core.lock(1, "R", LockMode.S)
        core.lock(2, "R", LockMode.S)
        assert not core.lock(1, "R", LockMode.X).granted
        assert not core.lock(2, "R", LockMode.X).granted
        result = core.detect()
        assert len(result.aborted) == 1
        survivor = 1 if core.was_aborted(2) else 2
        assert core.holding(survivor)["R"] is LockMode.X


class TestBankingWorkload:
    def make_bank(self, policy="periodic"):
        db = Database(core=ShardedLockCore(policy=policy))
        db.create_table(
            "accounts", {"acct{}".format(i): 100 for i in range(8)}
        )
        return db

    def transfer(self, src, dst, amount):
        return [
            ("read", "accounts", src),
            ("work", 0.5),
            ("write", "accounts", src, None),  # placeholder, see below
            ("write", "accounts", dst, None),
        ]

    def run_transfers(self, db, pairs, detect_every=7):
        ex = Executor(db, detect_every=detect_every)
        for index, (src, dst) in enumerate(pairs):
            # Move 10 units; writes use fixed values derived from the
            # script order so outcomes stay comparable across runs.
            ex.submit(
                [
                    ("write", "accounts", src, 90),
                    ("work", 0.5),
                    ("write", "accounts", dst, 110),
                ],
                "x{}".format(index),
            )
        return ex.run()

    def test_crossing_transfers_commit(self):
        db = self.make_bank()
        report = self.run_transfers(
            db, [("acct0", "acct1"), ("acct1", "acct0")]
        )
        assert report.commits == 2
        assert not has_deadlock(db.core.table)

    def test_many_random_transfers_periodic(self):
        rng = random.Random(42)
        db = self.make_bank()
        pairs = [
            tuple(rng.sample([f"acct{i}" for i in range(8)], 2))
            for _ in range(12)
        ]
        report = self.run_transfers(db, pairs)
        assert report.commits == 12
        assert not has_deadlock(db.core.table)

    def test_many_random_transfers_continuous(self):
        rng = random.Random(43)
        db = self.make_bank(policy="continuous")
        pairs = [
            tuple(rng.sample([f"acct{i}" for i in range(8)], 2))
            for _ in range(12)
        ]
        ex = Executor(db, detect_every=None)
        for index, (src, dst) in enumerate(pairs):
            ex.submit(
                [
                    ("write", "accounts", src, 90),
                    ("work", 0.5),
                    ("write", "accounts", dst, 110),
                ],
                "x{}".format(index),
            )
        report = ex.run()
        assert report.commits == 12


class TestScanUpdateMix:
    def test_six_lock_workload(self):
        """Reporting transactions (SIX scans) mixed with row updates —
        the five-mode matrix in a real workload."""
        db = Database()
        db.create_table("inv", {"sku{}".format(i): i * 10 for i in range(5)})
        ex = Executor(db, detect_every=6)
        ex.submit(
            [
                ("scan_update", "inv"),
                ("work", 1.0),
                ("write", "inv", "sku1", 999),
            ],
            "auditor",
        )
        ex.submit(
            [("write", "inv", "sku2", 5), ("work", 1.0),
             ("write", "inv", "sku3", 7)],
            "writer",
        )
        ex.submit([("scan", "inv")], "reader")
        report = ex.run()
        assert report.commits == 3
        assert db._tables["inv"]["sku1"] == 999

    def test_upgrade_storm(self):
        """Several readers all upgrading — conversion deadlocks galore,
        the scheduler + detector must drain them all."""
        db = Database()
        db.create_table("hot", {"k": 0})
        ex = Executor(db, detect_every=5, max_restarts=50)
        for index in range(4):
            ex.submit(
                [
                    ("read", "hot", "k"),
                    ("work", 0.5),
                    ("write", "hot", "k", index),
                ],
                "u{}".format(index),
            )
        report = ex.run()
        assert report.commits == 4
        assert report.aborts >= 1  # upgrades must have collided


class TestSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workload_drains_clean(self, seed):
        rng = random.Random(seed)
        db = Database()
        db.create_table("t", {"k{}".format(i): 0 for i in range(6)})
        ex = Executor(db, detect_every=9, max_restarts=60, max_steps=50000)
        for index in range(10):
            script = []
            for _ in range(rng.randint(2, 5)):
                key = "k{}".format(rng.randrange(6))
                if rng.random() < 0.5:
                    script.append(("read", "t", key))
                else:
                    script.append(("write", "t", key, rng.randrange(100)))
                script.append(("work", 0.25))
            ex.submit(script, "s{}".format(index))
        report = ex.run()
        assert report.commits == 10
        table = db.core.table
        assert not table.active_tids()
        assert len(table) == 0  # every resource entry reclaimed
