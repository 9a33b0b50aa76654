"""The staged scenarios every lock-manager facade must resolve alike.

One body per behaviour: the conformance suite parameterises these over
the facades (``test_core.py`` over the :class:`~repro.lockmgr.LockCore`
axis, ``test_blocking.py`` over the
:class:`~repro.lockmgr.BlockingLockManager` axis), and the per-facade
suites that need a facade-specific extra assertion (the ``routing``
pass info, a worker count off the axis) call the same
function and add only that.

Every ``check_*`` takes a freshly built core on the detector lane
(``policy="periodic"``) and returns the pass result.
"""

from repro.core.modes import LockMode
from repro.core.victim import CostTable


def feed_example_41(manager, r1: str, r2: str) -> None:
    """Example 4.1's deadlock through real requests (the conftest
    builder, parameterized over resource ids so the two resources can
    be placed on distinct partitions)."""
    assert manager.lock(7, r2, LockMode.IS).granted
    assert manager.lock(1, r1, LockMode.IX).granted
    assert manager.lock(2, r1, LockMode.IS).granted
    assert manager.lock(3, r1, LockMode.IX).granted
    assert manager.lock(4, r1, LockMode.IS).granted
    # Blocked conversions: T1 IX->SIX (re-requests S), T2 IS->S.
    assert not manager.lock(1, r1, LockMode.S).granted
    assert not manager.lock(2, r1, LockMode.S).granted
    assert not manager.lock(5, r1, LockMode.IX).granted
    assert not manager.lock(6, r1, LockMode.S).granted
    assert not manager.lock(7, r1, LockMode.IX).granted
    assert not manager.lock(8, r2, LockMode.X).granted
    assert not manager.lock(9, r2, LockMode.IX).granted
    assert not manager.lock(3, r2, LockMode.S).granted
    assert not manager.lock(4, r2, LockMode.X).granted


def feed_example_51(manager, r1: str, r2: str) -> None:
    """Example 5.1's deadlock (the TDR-1 walkthrough), likewise
    parameterized over resource ids."""
    assert manager.lock(1, r1, LockMode.S).granted
    assert manager.lock(2, r2, LockMode.S).granted
    assert manager.lock(3, r2, LockMode.S).granted
    assert not manager.lock(2, r1, LockMode.X).granted
    assert not manager.lock(3, r1, LockMode.S).granted
    assert not manager.lock(1, r2, LockMode.X).granted


#: Example 5.1's walkthrough costs (Section 5): T2 is the cheaper of
#: the two eligible victims, T3 is spared.
EXAMPLE_51_COSTS = {1: 6.0, 2: 4.0, 3: 1.0}


def example_51_costs() -> CostTable:
    return CostTable(dict(EXAMPLE_51_COSTS))


def spread_rids(core, count: int = 2):
    """``count`` resource ids on pairwise distinct partitions (shards or
    workers) as far as the facade has them — probed, so no test bakes in
    the hash function."""
    part_of = getattr(core, "shard_index", None) or getattr(
        core, "worker_index", lambda rid: 0
    )
    wanted = min(getattr(core, "shard_count", 1), count)
    chosen, seen = [], set()
    i = 0
    while len(chosen) < count:
        i += 1
        rid = "R{}".format(i)
        if part_of(rid) in seen and len(seen) < wanted:
            continue  # hold out for a partition not used yet
        seen.add(part_of(rid))
        chosen.append(rid)
    return chosen


def reposition_keys(result):
    return [(event.rid, tuple(event.delayed)) for event in result.repositions]


def check_example_41_is_abort_free(core, r1: str, r2: str):
    """TDR-2: the cycle is broken by one queue repositioning at ``r2``,
    nobody is aborted and T9 gets its grant."""
    feed_example_41(core, r1, r2)
    assert core.deadlocked()
    result = core.detect()
    assert result.deadlock_found
    assert result.abort_free
    assert result.aborted == []
    assert reposition_keys(result) == [(r2, (8,))]
    assert [event.tid for event in result.grants] == [9]
    assert not core.deadlocked()
    assert not any(core.was_aborted(tid) for tid in range(1, 10))
    return result


def check_example_51_routes_the_abort(core, r1: str, r2: str):
    """The TDR-1 walkthrough (``core`` built with
    :func:`example_51_costs`): the victim (T2) is blocked at one
    resource but holds the other; the abort must release it everywhere
    and spare T3."""
    feed_example_51(core, r1, r2)
    result = core.detect()
    assert result.aborted == [2]
    assert result.spared == [3]
    assert [event.tid for event in result.grants] == [3]
    assert core.was_aborted(2)
    assert core.holding(2) == {}
    assert not core.deadlocked()
    return result


def check_x_cycle_needs_one_victim(core, a: str, b: str):
    """A pure-X two-cycle has no spared reader to promote, so TDR-1
    must abort exactly one side — and only one."""
    assert core.lock(1, a, LockMode.X).granted
    assert core.lock(2, b, LockMode.X).granted
    assert not core.lock(1, b, LockMode.X).granted
    assert not core.lock(2, a, LockMode.X).granted
    result = core.detect()
    assert result.deadlock_found
    assert len(result.aborted) == 1
    assert not core.deadlocked()
    survivor = ({1, 2} - set(result.aborted)).pop()
    assert core.holding(survivor) == {a: LockMode.X, b: LockMode.X}
    return result


def check_clean_pass_does_nothing(core, a: str, b: str):
    assert core.lock(1, a, LockMode.S).granted
    assert not core.lock(2, a, LockMode.X).granted
    assert core.lock(3, b, LockMode.X).granted
    result = core.detect()
    assert not result.deadlock_found
    assert result.aborted == [] and result.repositions == []
    assert core.is_blocked(2)
    return result


def check_matches_reference(core, reference, example, r1: str, r2: str):
    """Feed both cores the same example; their passes must decide the
    same and leave byte-identical tables."""
    example(core, r1, r2)
    example(reference, r1, r2)
    ours, theirs = core.detect(), reference.detect()
    assert ours.aborted == theirs.aborted
    assert ours.spared == theirs.spared
    assert reposition_keys(ours) == reposition_keys(theirs)
    assert sorted(
        (event.tid, event.rid) for event in ours.grants
    ) == sorted((event.tid, event.rid) for event in theirs.grants)
    assert str(core.table) == str(reference.table)
    return ours
