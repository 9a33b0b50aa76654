"""One detector pass, Section 5's Steps 1-3 run once on every binding.

A routed pass (``shards > 1`` or a cluster) stages Steps 1-2 on a merged
copy of the waiting structure and runs Step 3 once, against the live
state: victims newest first, and one granted by an earlier victim's
release is spared, not stale.  The copy is never released or swept.
"""

from unittest import mock

import pytest

from repro.cluster import LocalCluster
from repro.lockmgr import scheduler
from repro.lockmgr.sharded import ShardedLockCore

from ..conformance import scenarios

FACADES = {
    "shards=1": lambda costs: ShardedLockCore(
        shards=1, costs=costs, policy="periodic"
    ),
    "shards=4": lambda costs: ShardedLockCore(
        shards=4, costs=costs, policy="periodic"
    ),
    "cluster": lambda costs: LocalCluster(
        workers=2, costs=costs, policy="periodic"
    ),
}


def live_tables(core):
    cores = getattr(core, "cores", [core])
    return {id(shard.table) for each in cores for shard in each.shards}


def example_51_outcome(name):
    core = FACADES[name](scenarios.example_51_costs())
    r1, r2 = scenarios.spread_rids(core)
    result = scenarios.check_example_51_routes_the_abort(core, r1, r2)
    info = result.routing
    if info is not None:
        assert info.stale_victims == 0
        assert info.cross_part_cycles >= 1
    return (
        result.aborted,
        result.spared,
        [(event.tid, event.rid) for event in result.grants],
    )


def test_example_51_resolves_identically_on_every_binding():
    """The inner victim's release grants the outer victim, which is
    spared — the same aborted / spared / grants order everywhere."""
    outcomes = {name: example_51_outcome(name) for name in FACADES}
    reference = outcomes["shards=1"]
    assert reference[:2] == ([2], [3])
    for name, outcome in outcomes.items():
        # Resource ids are probed per facade; compare the transactions.
        assert (outcome[0], outcome[1], [t for t, _ in outcome[2]]) == (
            reference[0], reference[1], [t for t, _ in reference[2]]
        ), name


@pytest.mark.parametrize("name", ["shards=4", "cluster"])
@pytest.mark.parametrize("feed", ["41", "51"])
def test_a_routed_pass_never_releases_or_sweeps_the_copy(name, feed):
    costs = scenarios.example_51_costs() if feed == "51" else None
    core = FACADES[name](costs)
    r1, r2 = scenarios.spread_rids(core)
    getattr(scenarios, "feed_example_" + feed)(core, r1, r2)
    live = live_tables(core)
    touched = []
    real_release_all, real_sweep = scheduler.release_all, scheduler.sweep

    def release_all(table, tid):
        touched.append(("release_all", id(table) in live))
        return real_release_all(table, tid)

    def sweep(table, rid):
        touched.append(("sweep", id(table) in live))
        return real_sweep(table, rid)

    with mock.patch.object(scheduler, "release_all", release_all), \
            mock.patch.object(scheduler, "sweep", sweep):
        result = core.detect()
    assert result.deadlock_found
    assert touched, "Step 3 ran nowhere"
    assert all(on_live for _, on_live in touched), touched
    assert result.routing.stale_victims == 0

