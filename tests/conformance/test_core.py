"""The ``LockCore`` conformance suite: one set of behaviours, every
steppable facade.

Axis: :class:`~repro.lockmgr.ShardedLockCore` with 1 and 4 shards and
:class:`~repro.cluster.LocalCluster` with 2 and 3 workers (the
``LockManager`` name is the same class as ``ShardedLockCore``, so it is
the ``sharded-1`` entry).  Whatever a kernel (or the explorer's
lockstep driver) may rely on through the contract is asserted here
once, on each of them: the locking surface and its introspection,
Axiom 1, the victim latch, first-lock table order, and the paper's
printed deadlocks — Example 4.1 abort-free by TDR-2, Example 5.1 by the
walkthrough's victim, a pure-X cycle by exactly one abort — resolved
identically to the one-shard core, whose pass resolves on the live
table.

Adding a facade: give it the contract's methods, add one line to
``CORES``.
"""

import pytest

from repro.check.lockstep import detection_summary
from repro.cluster import LocalCluster
from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.lockmgr import (
    BlockingLockManager,
    LockCore,
    ShardedLockCore,
)

from . import scenarios

#: id -> factory(costs) building the facade on the periodic policy.
CORES = {
    "sharded-1": lambda costs: ShardedLockCore(shards=1, costs=costs),
    "sharded-4": lambda costs: ShardedLockCore(shards=4, costs=costs),
    "cluster-2": lambda costs: LocalCluster(workers=2, costs=costs),
    "cluster-3": lambda costs: LocalCluster(workers=3, costs=costs),
}


@pytest.fixture(params=sorted(CORES))
def build(request):
    factory = CORES[request.param]
    return lambda costs=None: factory(costs)


class TestLockingSurface:
    def test_satisfies_the_declared_contract(self, build):
        core = build()
        assert isinstance(core, LockCore)
        assert not isinstance(core, BlockingLockManager)

    def test_grant_block_and_introspection(self, build):
        core = build()
        assert core.lock(1, "R", LockMode.S).granted
        assert core.lock(2, "R", LockMode.S).granted
        assert not core.lock(3, "R", LockMode.X).granted
        assert core.is_blocked(3) and core.blocked_at(3) == "R"
        assert not core.is_blocked(1) and core.blocked_at(1) is None
        assert core.holding(1) == {"R": LockMode.S}
        assert core.holding(3) == {}
        assert not core.deadlocked()
        assert not core.graph().has_cycle()

    def test_finish_releases_and_wakes(self, build):
        core = build()
        a, b = scenarios.spread_rids(core)
        assert core.lock(1, a, LockMode.X).granted
        assert core.lock(1, b, LockMode.X).granted
        assert not core.lock(2, a, LockMode.S).granted
        grants = core.finish(1)
        assert [(event.tid, event.rid) for event in grants] == [(2, a)]
        assert core.holding(1) == {}
        assert core.holding(2) == {a: LockMode.S}
        assert not core.is_blocked(2)
        assert core.table.resource_ids() == [a]

    def test_conversion_upgrades_in_place(self, build):
        core = build()
        assert core.lock(1, "R", LockMode.IS).granted
        assert core.lock(1, "R", LockMode.IX).granted
        assert core.holding(1) == {"R": LockMode.IX}

    def test_axiom_1_one_wait_per_transaction(self, build):
        core = build()
        a, b = scenarios.spread_rids(core)
        assert core.lock(1, a, LockMode.X).granted
        assert core.lock(2, b, LockMode.X).granted
        assert not core.lock(3, a, LockMode.X).granted
        with pytest.raises(LockTableError):
            core.lock(3, b, LockMode.X)
        assert core.blocked_at(3) == a

    def test_transaction_ids_start_at_one(self, build):
        """0 and -1 are the detector walk's sentinels: a lock under
        either is refused before it reaches the table, where its
        deadlock would be one no pass finds (0) or every pass fails on
        (-1)."""
        core = build()
        a, b = scenarios.spread_rids(core)
        for tid in (0, -1):
            with pytest.raises(LockTableError):
                core.lock(tid, a, LockMode.X)
        assert core.table.resource_ids() == []
        scenarios.check_x_cycle_needs_one_victim(core, a, b)

    def test_victim_is_latched_until_finish(self, build):
        core = build()
        a, b = scenarios.spread_rids(core)
        result = scenarios.check_x_cycle_needs_one_victim(core, a, b)
        (victim,) = result.aborted
        assert core.was_aborted(victim)
        with pytest.raises(LockTableError):
            core.lock(victim, "elsewhere", LockMode.S)
        core.finish(victim)
        assert not core.was_aborted(victim)
        assert core.lock(victim, "elsewhere", LockMode.S).granted

    def test_table_keeps_first_lock_order(self, build):
        core, reference = build(), ShardedLockCore()
        rids = ["R{}".format(i) for i in range(1, 17)]
        for tid, rid in enumerate(rids, start=1):
            assert core.lock(tid, rid, LockMode.S).granted
            assert reference.lock(tid, rid, LockMode.S).granted
        assert core.table.resource_ids() == rids
        assert str(core.table) == str(reference.table)
        # A resource that empties and is locked again moves to the end.
        core.finish(1)
        assert core.lock(20, "R1", LockMode.X).granted
        assert core.table.resource_ids() == rids[1:] + ["R1"]


class TestPaperDeadlocks:
    def test_example_41_is_abort_free(self, build):
        core = build()
        r1, r2 = scenarios.spread_rids(core)
        result = scenarios.check_example_41_is_abort_free(core, r1, r2)
        self._quiescent(core, result)

    def test_example_51_routes_the_abort(self, build):
        core = build(scenarios.example_51_costs())
        r1, r2 = scenarios.spread_rids(core)
        result = scenarios.check_example_51_routes_the_abort(core, r1, r2)
        self._quiescent(core, result)

    def test_x_cycle_needs_one_victim(self, build):
        core = build()
        a, b = scenarios.spread_rids(core)
        result = scenarios.check_x_cycle_needs_one_victim(core, a, b)
        self._quiescent(core, result)

    def test_clean_pass_does_nothing(self, build):
        core = build()
        a, b = scenarios.spread_rids(core)
        result = scenarios.check_clean_pass_does_nothing(core, a, b)
        info = result.routing
        assert info is None or info.cross_part_cycles == 0

    @pytest.mark.parametrize("example,costs", [
        (scenarios.feed_example_41, None),
        (scenarios.feed_example_51, scenarios.EXAMPLE_51_COSTS),
    ], ids=["example-41", "example-51"])
    def test_matches_monolithic(self, build, example, costs):
        """Same victims, repositionings and table as the one-shard core
        (the live-table pass every routed pass must reproduce)."""

        def build_costs():
            return scenarios.CostTable(dict(costs)) if costs else None

        core = build(build_costs())
        reference = ShardedLockCore(shards=1, costs=build_costs())
        r1, r2 = scenarios.spread_rids(core)
        example(reference, r1, r2)
        example(core, r1, r2)
        expected = detection_summary(reference.detect())
        assert detection_summary(core.detect()) == expected
        assert str(core.table) == str(reference.table)

    @staticmethod
    def _quiescent(core, result):
        """A routed pass on a quiescent core: every partition answered,
        nothing went stale, and the cycle did span partitions when the
        facade has more than one."""
        info = result.routing
        if info is None:
            return
        assert info.parts == core.shard_count
        assert info.stale_victims == 0 and info.stale_repositions == 0
        assert info.unreachable_workers == []
        assert info.cross_part_cycles >= 1
