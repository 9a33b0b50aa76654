"""TransactionManager lifecycle and detection folding."""

import pytest

from repro.core.errors import TransactionAborted, UnknownTransactionError
from repro.core.modes import LockMode
from repro.txn.manager import TransactionManager
from repro.txn.transaction import TxnState
from repro.txn import costs as cost_policies


def make_deadlock(tm):
    t1, t2 = tm.begin(), tm.begin()
    assert tm.lock(t1, "A", LockMode.X)
    assert tm.lock(t2, "B", LockMode.X)
    assert not tm.lock(t1, "B", LockMode.X)
    assert not tm.lock(t2, "A", LockMode.X)
    return t1, t2


class TestLifecycle:
    def test_begin_assigns_increasing_tids(self):
        tm = TransactionManager()
        assert [tm.begin().tid for _ in range(3)] == [1, 2, 3]

    def test_lock_grant_updates_state(self):
        tm = TransactionManager()
        txn = tm.begin()
        assert tm.lock(txn, "R", LockMode.S)
        assert txn.locks_held == 1

    def test_lock_block_updates_state(self):
        tm = TransactionManager()
        t1, t2 = tm.begin(), tm.begin()
        tm.lock(t1, "R", LockMode.X)
        assert not tm.lock(t2, "R", LockMode.S)
        assert t2.is_blocked

    def test_commit_wakes_waiters(self):
        tm = TransactionManager()
        t1, t2 = tm.begin(), tm.begin()
        tm.lock(t1, "R", LockMode.X)
        tm.lock(t2, "R", LockMode.S)
        woken = tm.commit(t1)
        assert [w.tid for w in woken] == [t2.tid]
        assert t2.is_active

    def test_abort_releases_locks(self):
        tm = TransactionManager()
        t1, t2 = tm.begin(), tm.begin()
        tm.lock(t1, "R", LockMode.X)
        tm.lock(t2, "R", LockMode.X)
        tm.abort(t1, "user")
        assert t1.state is TxnState.ABORTED
        assert t2.is_active

    def test_transaction_lookup(self):
        tm = TransactionManager()
        txn = tm.begin()
        assert tm.transaction(txn.tid) is txn
        with pytest.raises(UnknownTransactionError):
            tm.transaction(99)

    def test_clock(self):
        tm = TransactionManager()
        assert tm.now() == 0.0
        tm.tick(2.5)
        assert tm.now() == 2.5


class TestDetection:
    def test_periodic_run_aborts_victim(self):
        tm = TransactionManager()
        t1, t2 = make_deadlock(tm)
        assert tm.deadlocked()
        result = tm.run_detection()
        assert result.deadlock_found
        victims = [t for t in (t1, t2) if t.state is TxnState.ABORTED]
        survivors = [t for t in (t1, t2) if t.is_active]
        assert len(victims) == 1 and len(survivors) == 1
        assert not tm.deadlocked()

    def test_survivor_was_woken(self):
        tm = TransactionManager()
        t1, t2 = make_deadlock(tm)
        tm.run_detection()
        survivor = t1 if t1.is_active else t2
        assert not survivor.is_blocked

    def test_cost_policy_drives_victims(self):
        tm = TransactionManager(cost_policy=cost_policies.locks_held_cost)
        t1, t2 = tm.begin(), tm.begin()
        tm.lock(t1, "A", LockMode.X)
        tm.lock(t1, "C", LockMode.X)
        tm.lock(t1, "D", LockMode.X)  # t1 holds 3 locks
        tm.lock(t2, "B", LockMode.X)
        tm.lock(t1, "B", LockMode.X)
        tm.lock(t2, "A", LockMode.X)
        tm.run_detection()
        assert t2.state is TxnState.ABORTED  # fewer locks -> cheaper
        assert t1.is_active

    def test_refresh_costs_keeps_penalties(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.locks.costs.set_cost(txn.tid, 50.0)  # accumulated penalty
        tm.refresh_costs()
        assert tm.locks.costs.cost(txn.tid) == 50.0

    def test_continuous_mode_raises_on_victim(self):
        tm = TransactionManager(policy="continuous")
        t1, t2 = tm.begin(), tm.begin()
        tm.lock(t1, "A", LockMode.X)
        tm.lock(t2, "B", LockMode.X)
        tm.lock(t1, "B", LockMode.X)
        # t2 closes the cycle; with unit costs the tie-break aborts the
        # smaller tid (t1), so t2 just stays blocked... check both paths.
        try:
            granted = tm.lock(t2, "A", LockMode.X)
        except TransactionAborted:
            assert t2.state is TxnState.ABORTED
        else:
            assert t1.state is TxnState.ABORTED or t2.state is TxnState.ABORTED

    def test_work_accounting(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.work(txn, 3.5)
        assert txn.work_done == 3.5


class TestCostPolicies:
    def test_unit(self):
        txn = TransactionManager().begin()
        assert cost_policies.unit_cost(txn, 10.0) == 1.0

    def test_locks_held(self):
        txn = TransactionManager().begin()
        txn.locks_held = 4
        assert cost_policies.locks_held_cost(txn, 0.0) == 5.0

    def test_age(self):
        txn = TransactionManager().begin()
        txn.start_time = 2.0
        assert cost_policies.age_cost(txn, 10.0) == 9.0

    def test_work_done(self):
        txn = TransactionManager().begin()
        txn.work_done = 7.0
        assert cost_policies.work_done_cost(txn, 0.0) == 8.0

    def test_restart_fairness(self):
        txn = TransactionManager().begin()
        txn.restarts = 3
        assert cost_policies.restart_fairness_cost(txn, 0.0) == 8.0

    def test_combine(self):
        txn = TransactionManager().begin()
        txn.locks_held = 1
        policy = cost_policies.combine(
            [cost_policies.unit_cost, cost_policies.locks_held_cost]
        )
        assert policy(txn, 0.0) == 3.0
