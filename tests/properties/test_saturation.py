"""The saturation lemma, by search.

``saturated()`` — somebody is blocked and every lock holder is — is the
lock server's reason to run a detection pass *now* instead of at the
next clock tick.  The claim behind it: such a table is deadlocked
(every wait chain ends at a holder, so its wait-for graph has no sink,
hence a cycle), and by Theorem 1 the pass finds that cycle.

Seeded request / finish / detect streams over all five lock modes —
conversions, blocked conversions and TDR-2-repositioned queues
included — drive a monolithic ``LockManager`` (a bare ``LockTable``),
``ShardedLockCore(1)`` and ``ShardedLockCore(4)`` and hold, after every
step:

* **sound** — whenever the predicate holds, ``detect()`` reports at
  least one resolution;
* **exact** — the predicate equals its definition read off the
  resource rows (not off the indexes it is computed from), and the
  four-shard core agrees with ``LockTable.saturated()`` of its merged
  table.

Two planted mutants must die, one on each property: a predicate that
does not count a blocked conversion as blocked misses the conversion
deadlock, and one that stops at the count test fires on a queue behind
a running holder.
"""

from __future__ import annotations

import random

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr import LockManager
from repro.lockmgr.sharded import ShardedLockCore

MODES = [LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X]
TIDS = range(1, 7)
RIDS = ["R{}".format(n) for n in range(4)]
SEEDS = range(40)
STEPS = 120

SUBJECTS = {
    "table": lambda: LockManager(policy="periodic"),
    "sharded-1": lambda: ShardedLockCore(shards=1, policy="periodic"),
    "sharded-4": lambda: ShardedLockCore(shards=4, policy="periodic"),
}


def by_definition(table) -> bool:
    """The predicate read off the rows: holders and waiters of every
    resource, no transaction-side index."""
    holders, blocked = set(), set()
    for state in table.resources():
        for holder in state.holders:
            holders.add(holder.tid)
            if holder.is_blocked:
                blocked.add(holder.tid)
        blocked.update(waiter.tid for waiter in state.queue)
    return bool(blocked) and holders <= blocked


def real(core) -> bool:
    """``ShardedLockCore.saturated()``; a ``LockManager``'s bare table."""
    return getattr(core, "saturated", core.table.saturated)()


def ignores_conversions(core) -> bool:
    """Mutant: only a queued transaction counts as blocked."""
    table = core.table
    queued = {
        tid for tid in table.blocked_tids() if table.blocked_in_queue(tid)
    }
    holders = {
        holder.tid for state in table.resources() for holder in state.holders
    }
    return bool(queued) and holders <= queued


def stops_at_the_count(core) -> bool:
    """Mutant: as many blocked as holders is taken for 'every holder'."""
    table = core.table
    blocked = table.blocked_tids()
    holders = {
        holder.tid for state in table.resources() for holder in state.holders
    }
    return bool(blocked) and len(blocked) >= len(holders)


def stream(core, seed: int, predicate):
    """Drive one seeded stream; yields a violation string per broken
    property (none for a correct predicate)."""
    rng = random.Random(seed)
    for step in range(STEPS):
        tid = rng.choice(TIDS)
        if core.was_aborted(tid) or rng.random() < 0.12:
            core.finish(tid)
        elif not core.is_blocked(tid):
            core.lock(tid, rng.choice(RIDS), rng.choice(MODES))
        elif rng.random() < 0.05:
            core.finish(tid)  # a waiter gives up
        says = predicate(core)
        if says != by_definition(core.table):
            yield "seed {} step {}: predicate {} but the rows say {}".format(
                seed, step, says, not says
            )
        if says:
            if not core.detect().resolutions:
                yield "seed {} step {}: saturated, yet the pass found " \
                    "no cycle".format(seed, step)
        elif rng.random() < 0.1:
            core.detect()  # TDR-2 repositionings enter the stream here


def violations(make, predicate):
    return [
        line for seed in SEEDS for line in stream(make(), seed, predicate)
    ]


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_saturated_means_the_pass_finds_a_deadlock(subject):
    assert violations(SUBJECTS[subject], real) == []


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_the_streams_reach_saturated_states(subject):
    """The property above is not vacuous: the premise holds often, and
    the streams block conversions and reposition queues."""
    saturated = conversions = repositioned = 0
    for seed in SEEDS:
        core = SUBJECTS[subject]()
        said = []

        def probe(core):
            said.append(real(core))
            return said[-1]

        assert list(stream(core, seed, probe)) == []
        saturated += sum(said)
        for event in core.log:
            name = type(event).__name__
            conversions += name == "Blocked" and event.conversion
            repositioned += name == "Repositioned"
    assert saturated >= 20 and conversions and repositioned


def test_four_shards_agree_with_the_merged_table():
    def as_the_merged_table_says(core):
        merged = LockTable()
        for state in core.table.snapshot():
            merged.install(state)
        assert core.saturated() == merged.saturated()
        return core.saturated()

    assert violations(SUBJECTS["sharded-4"], as_the_merged_table_says) == []


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_mutant_that_ignores_blocked_conversions_dies(subject):
    found = violations(SUBJECTS[subject], ignores_conversions)
    assert any("the rows say True" in line for line in found)
    # ...and on the textbook case: two S holders both upgrading to X.
    core = SUBJECTS[subject]()
    for tid in (1, 2):
        core.lock(tid, "R0", LockMode.S)
    for tid in (1, 2):
        core.lock(tid, "R0", LockMode.X)
    assert real(core) and not ignores_conversions(core)
    assert core.detect().resolutions


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_mutant_that_stops_at_the_count_test_dies(subject):
    found = violations(SUBJECTS[subject], stops_at_the_count)
    assert any("the pass found no cycle" in line for line in found)
    # ...and on the smallest case: one waiter behind one running holder.
    core = SUBJECTS[subject]()
    core.lock(1, "R0", LockMode.X)
    core.lock(2, "R0", LockMode.X)
    assert stops_at_the_count(core) and not real(core)
    assert not core.detect().resolutions
