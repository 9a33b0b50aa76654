"""The sparse pass decides exactly what the full-table pass decides.

Random request/finish/detect sequences drive two copies of one lock
manager in lockstep: one runs its detector as shipped (waiting
structure only), the other inside :func:`tests.fulltable.full_table_pass`
(every table row, the pre-sparse detector).  After every activation the
two must agree on cycles, candidate sets, chosen resolutions, aborted,
spared, repositions and grants — on every lane: the monolithic manager,
the single- and multi-shard core, the in-process cluster, the continuous
at-block check and the batched detector; with and without a few
thousand idle readers beside the contended resources.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import LocalCluster
from repro.baselines import BatchedPolicy
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr import LockManager
from repro.lockmgr.sharded import ShardedLockCore

from ..fulltable import full_table_pass, outputs

TIDS = range(1, 7)
MODES = [LockMode.S, LockMode.X, LockMode.IS, LockMode.IX, LockMode.SIX]
BALLAST = 2000

seeds = st.integers(min_value=0, max_value=1_000_000)
cost_tables = st.dictionaries(
    st.sampled_from(TIDS), st.sampled_from([0.5, 1.0, 2.0, 5.0])
)


def operations(seed, length=60):
    """A hot request stream: six transactions over two to four
    resources, mostly locks, the odd finish and detector tick.  Drawn
    from a seeded generator rather than element by element — uniform
    draws deadlock in most sequences, shrink-biased ones almost never."""
    rng = random.Random(seed)
    rids = ["R{}".format(i) for i in range(1, rng.randint(2, 4) + 1)]
    ops = []
    for _ in range(length):
        draw = rng.random()
        tid = rng.choice(TIDS)
        if draw < 0.88:
            ops.append(("lock", tid, rng.choice(rids), rng.choice(MODES)))
        elif draw < 0.94:
            ops.append(("finish", tid))
        else:
            ops.append(("detect",))
    return ops


class Periodic:
    """A manager whose deadlocks wait for an explicit ``detect``."""

    def __init__(self, factory, costs):
        self.manager = factory(CostTable(dict(costs)))

    def lock(self, tid, rid, mode):
        return self.manager.lock(tid, rid, mode).granted, None

    def detect(self):
        return self.manager.detect()


class Continuous(Periodic):
    """The rooted check runs inside ``lock``; its result is the pass."""

    def lock(self, tid, rid, mode):
        outcome = self.manager.lock(tid, rid, mode)
        return outcome.granted, self.manager.last_detection


LANES = {
    "manager": (Periodic, lambda costs: LockManager(costs=costs)),
    "shards=1": (Periodic, lambda costs: ShardedLockCore(1, costs)),
    "shards=4": (Periodic, lambda costs: ShardedLockCore(4, costs)),
    # The sparse snapshot payload and every resolve plan cross the
    # coordinator's wire on each codec.
    "cluster": (Periodic, lambda costs: LocalCluster(2, costs)),
    "cluster-binary": (
        Periodic,
        lambda costs: LocalCluster(2, costs, wire="binary"),
    ),
    "continuous": (
        Continuous,
        lambda costs: LockManager(costs=costs, policy="continuous"),
    ),
    # Blocks are recorded; ``detect`` flushes one rooted pass.
    "batched": (
        Periodic,
        lambda costs: LockManager(
            costs=costs, policy=BatchedPolicy(batch_size=None)
        ),
    ),
}


def run_lockstep(lane, ops, costs, ballast):
    kind, factory = LANES[lane]
    sparse, full = kind(factory, costs), kind(factory, costs)
    for world in (sparse, full):
        for index in range(ballast):
            world.manager.lock(
                10_000 + index, "b{}".format(index), LockMode.S
            )
    passes = 0
    for op in ops + [("detect",)]:
        if op[0] == "lock":
            _, tid, rid, mode = op
            manager = sparse.manager
            if manager.was_aborted(tid):
                op = ("finish", tid)
            elif manager.is_blocked(tid):
                continue
        if op[0] == "lock":
            ours = sparse.lock(*op[1:])
            with full_table_pass():
                theirs = full.lock(*op[1:])
            assert ours[0] == theirs[0], op
            ours, theirs = ours[1], theirs[1]
        elif op[0] == "finish":
            ours = sorted(
                (e.tid, e.rid) for e in sparse.manager.finish(op[1])
            )
            theirs = sorted(
                (e.tid, e.rid) for e in full.manager.finish(op[1])
            )
            assert ours == theirs, op
            continue
        else:
            ours = sparse.detect()
            with full_table_pass():
                theirs = full.detect()
        assert outputs(ours) == outputs(theirs), (lane, op)
        if ours is not None:
            passes += bool(ours.resolutions)
        for tid in TIDS:
            assert (
                sparse.manager.is_blocked(tid)
                == full.manager.is_blocked(tid)
            )
            assert (
                sparse.manager.was_aborted(tid)
                == full.manager.was_aborted(tid)
            )
    return passes


@pytest.mark.parametrize("lane", sorted(LANES))
@given(seed=seeds, costs=cost_tables)
def test_sparse_pass_agrees_with_the_full_table_pass(lane, seed, costs):
    run_lockstep(lane, operations(seed), costs, ballast=0)


@pytest.mark.parametrize("lane", sorted(LANES))
@given(seed=seeds, costs=cost_tables)
@settings(max_examples=8)
def test_agreement_holds_beside_idle_ballast(lane, seed, costs):
    run_lockstep(lane, operations(seed), costs, ballast=BALLAST)


@pytest.mark.parametrize("lane", sorted(LANES))
def test_the_sequences_do_reach_deadlocks(lane):
    """The property is only worth its name if passes resolve cycles."""
    resolving = sum(
        bool(run_lockstep(lane, operations(seed), {}, ballast=16))
        for seed in range(20)
    )
    assert resolving >= 10
