"""The batched detection lane: blocks recorded, one rooted pass per
flush, on the lock core."""

from repro.baselines import BatchedPolicy
from repro.core.hw_twbg import build_graph
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr.sharded import ShardedLockCore


def batched(batch_size=None, costs=None):
    return ShardedLockCore(
        costs=costs, policy=BatchedPolicy(batch_size=batch_size)
    )


def block(core, tid, rid, mode):
    """Lock; the flush result when the request blocked and filled the
    batch, else None."""
    core.lock(tid, rid, mode)
    return core.last_detection


def cyclic(core):
    return build_graph(core.table.snapshot()).has_cycle()


class TestBatching:
    def test_explicit_flush_resolves(self):
        core = batched()
        core.lock(1, "A", LockMode.X)
        core.lock(2, "B", LockMode.X)
        block(core, 1, "B", LockMode.X)
        block(core, 2, "A", LockMode.X)
        assert core.policy.pending == [1, 2]
        result = core.detect()
        assert result.deadlock_found
        assert not cyclic(core)
        assert core.policy.pending == []
        assert core.policy.flushes == 1

    def test_no_flush_no_resolution(self):
        core = batched()
        core.lock(1, "A", LockMode.X)
        core.lock(2, "B", LockMode.X)
        block(core, 1, "B", LockMode.X)
        assert block(core, 2, "A", LockMode.X) is None
        assert cyclic(core)  # still there

    def test_threshold_auto_flush(self):
        core = batched(batch_size=2)
        core.lock(1, "A", LockMode.X)
        core.lock(2, "B", LockMode.X)
        assert block(core, 1, "B", LockMode.X) is None
        result = block(core, 2, "A", LockMode.X)
        assert result is not None and result.deadlock_found
        assert core.policy.flushes == 1

    def test_flush_on_empty_batch_is_noop(self):
        core = batched()
        result = core.detect()
        assert not result.deadlock_found

    def test_stale_roots_tolerated(self):
        # A recorded blocker may have been granted (or finished) before
        # the flush; the rooted walk just finds nothing from it.
        core = batched()
        core.lock(1, "A", LockMode.X)
        block(core, 2, "A", LockMode.S)
        core.finish(1)  # grants T2
        result = core.detect()
        assert not result.deadlock_found
        assert core.policy.flushes == 1

    def test_costs_respected(self):
        core = batched(costs=CostTable({1: 9.0, 2: 1.0}))
        core.lock(1, "A", LockMode.X)
        core.lock(2, "B", LockMode.X)
        block(core, 1, "B", LockMode.X)
        block(core, 2, "A", LockMode.X)
        assert core.detect().aborted == [2]
        assert core.was_aborted(2)

    def test_multiple_cycles_one_flush(self):
        core = batched()
        for base, (a, b) in enumerate([("A", "B"), ("C", "D")]):
            t1, t2 = 10 * base + 1, 10 * base + 2
            core.lock(t1, a, LockMode.X)
            core.lock(t2, b, LockMode.X)
            block(core, t1, b, LockMode.X)
            block(core, t2, a, LockMode.X)
        result = core.detect()
        assert result.stats.cycles_found == 2
        assert len(result.aborted) == 2
