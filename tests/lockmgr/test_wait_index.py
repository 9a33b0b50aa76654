"""The core's wait index (the TST's ``pr`` column, kept live) against
the shard tables it summarizes.

On a multi-shard core ``blocked_at`` / ``is_blocked`` and the Axiom-1
check read a core-level ``tid -> rid`` index instead of scanning the
shards; ``saturated()`` reads that index plus each shard's holder keys.
Random schedules over every mutating entry point of the core (under the
periodic and the nowait policy) hold both to what the shard tables say
after every step: the owning table's ``blocked_at`` for every
transaction, and :meth:`MergedTableView.saturated` (the union of the
shard indexes).
"""

import random

import pytest

from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.lockmgr.sharded import MergedTableView, ShardedLockCore

TIDS = range(1, 7)
RIDS = ["r{}".format(index) for index in range(6)]
MODES = [LockMode.S, LockMode.X, LockMode.IS, LockMode.IX, LockMode.SIX]
STEPS = 80
SCHEDULES = 25


def table_blocked_at(core: ShardedLockCore, tid: int):
    """Where the shard tables say ``tid`` waits (one table at most)."""
    found = [
        shard.table.blocked_at(tid)
        for shard in core.shards
        if shard.table.is_blocked(tid)
    ]
    assert len(found) <= 1, "T{} waits on several shards".format(tid)
    return found[0] if found else None


def queued(core: ShardedLockCore):
    """``(rid, queue tids)`` of every resource with two or more waiters."""
    rows = []
    for shard in core.shards:
        for state in shard.table.resources():
            if len(state.queue) >= 2:
                rows.append((state.rid, [w.tid for w in state.queue]))
    return rows


def step(core: ShardedLockCore, rng: random.Random) -> str:
    """One random call into the core; returns its name."""
    kind = rng.choice(
        ["lock"] * 6
        + ["finish", "detect", "abort_victim", "apply_reposition",
           "sweep_resource", "release_victim"]
    )
    tid, rid = rng.choice(TIDS), rng.choice(RIDS)
    if kind == "lock":
        if core.was_aborted(tid):
            core.finish(tid)  # the driver's answer to an abort
            return "finish"
        try:
            core.lock(tid, rid, rng.choice(MODES))
        except LockTableError:
            pass  # blocked already: Axiom 1 refused the request
    elif kind == "finish":
        core.finish(tid)
    elif kind == "detect":
        core.detect()
    elif kind == "abort_victim":
        # Where the transaction waits, or somewhere it does not (stale).
        where = core.blocked_at(tid)
        core.abort_victim(tid, where if rng.random() < 0.7 else rid)
    elif kind == "apply_reposition":
        rows = queued(core)
        if rows:
            target, tids = rng.choice(rows)
            prefix = tids[: rng.randint(2, len(tids))]
            delayed = set(rng.sample(prefix, rng.randint(1, len(prefix) - 1)))
            core.apply_reposition(
                target,
                [t for t in prefix if t not in delayed],
                [t for t in prefix if t in delayed],
            )
            core.sweep_resource(target)
    elif kind == "sweep_resource":
        core.sweep_resource(rid)
    else:
        core.release_victim(tid)
    return kind


@pytest.mark.parametrize("policy", ["periodic", "nowait"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_blocked_at_matches_the_owning_shard_table_after_every_step(
    shards, policy
):
    """``nowait`` adds the block-time abort, which releases the
    requester's entries on its shard from inside ``lock``."""
    kinds = set()
    for seed in range(SCHEDULES):
        rng = random.Random(seed)
        core = ShardedLockCore(shards=shards, policy=policy)
        for index in range(STEPS):
            kinds.add(step(core, rng))
            for tid in TIDS:
                expected = table_blocked_at(core, tid)
                assert core.blocked_at(tid) == expected, (seed, index, tid)
                assert core.is_blocked(tid) == (expected is not None)
    assert kinds == {
        "lock", "finish", "detect", "abort_victim", "apply_reposition",
        "sweep_resource", "release_victim",
    }


@pytest.mark.parametrize("shards", [2, 4])
def test_saturated_equals_the_merged_view_on_random_schedules(shards):
    seen = set()
    for seed in range(SCHEDULES):
        rng = random.Random(seed)
        core = ShardedLockCore(shards=shards)
        merged = MergedTableView(core)
        for index in range(STEPS):
            step(core, rng)
            expected = merged.saturated()
            assert core.saturated() == expected, (seed, index)
            seen.add(expected)
    assert seen == {False, True}


def test_a_cross_shard_second_wait_is_refused_from_the_index():
    core = ShardedLockCore(shards=4)
    a, b = "r0", next(
        rid for rid in RIDS if core.shard_index(rid) != core.shard_index("r0")
    )
    assert core.lock(1, a, LockMode.X).granted
    assert core.lock(2, b, LockMode.X).granted
    assert not core.lock(2, a, LockMode.S).granted
    assert core.blocked_at(2) == a
    with pytest.raises(LockTableError, match="already blocked at"):
        core.lock(2, b, LockMode.X)
    core.finish(1)  # the grant ends the wait
    assert core.blocked_at(2) is None and core._waits == {}
