"""The sharded backend: one-shard vs. many-shard equivalence checking.

The lockstep driver (:mod:`repro.check.lockstep`) over two
:class:`~repro.lockmgr.sharded.ShardedLockCore` worlds: the reference
has one shard, so its pass resolves on the live table
(:class:`~repro.lockmgr.detection_pass.LiveBinding`); the subject has a
scheduler-chosen shard count, so its pass runs on merged copies and
routes the resolutions back to the shards.

The pass comparison is the heart of the sharding refactor's correctness
argument: the cross-shard pass snapshots each shard's waiting resources,
merges the pieces into one RST in global first-lock order and runs the
unchanged Section-5 machinery — so on a quiescent system its observable
outcome must be *identical* to the live-table pass's.  Any
divergence — a reordered merge, a mis-routed resolution, a
stale-confirmation bug — fails the ``equivalence`` oracle with the
decision trace pointing at the schedule.  The state oracles run against
the sharded side's merged table view, so the structural invariants and
Theorem 1 are checked on the partitioned representation too.
"""

from __future__ import annotations

from typing import List, Optional

from ..lockmgr.sharded import ShardedLockCore
from ..sim.workload import Program
from .lockstep import LockstepModel, Worlds

#: Shard counts the scheduler may pick for the subject manager (>1 —
#: the 1-shard case *is* the reference).
SHARD_CHOICES = (2, 3, 4, 8)


class EquivalenceModel(LockstepModel):
    """Explorable lockstep comparison of the live-table and routed passes."""

    backend = "sharded"
    names = ("one shard", "sharded")

    def __init__(
        self, programs: List[Program], shards: Optional[int] = None, **kwargs
    ) -> None:
        # ``continuous`` is ignored: continuous detection is a
        # single-shard feature, so this backend always compares the
        # periodic pass.
        super().__init__(programs, **kwargs)
        self.shards = shards

    def open(self, scheduler):
        shards = self.shards
        if shards is None:
            shards = scheduler.choose(list(SHARD_CHOICES), "shards")
        # The periodic policy: this backend explores sharding
        # equivalence; the policy backend owns policy variation.
        return Worlds(
            ShardedLockCore(shards=shards),
            ShardedLockCore(),
            tag="shards={}".format(shards),
            shards=shards,
        )
