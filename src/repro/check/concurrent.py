"""The concurrent backend: logical transactions over one lock core.

Models the thread-per-transaction world of the one-shard
:class:`~repro.lockmgr.sharded.ShardedLockManager` as explicit
steps of the lockstep driver (:mod:`repro.check.lockstep`) over a single
world — no reference, so only the state and detection oracles run.
Under ``continuous`` there is no schedulable detector; instead every
blocking ``lock`` runs the rooted check, and its result goes through the
detection oracle on the spot.
"""

from __future__ import annotations

from ..lockmgr.sharded import ShardedLockCore
from .lockstep import LockstepModel, Worlds
from .oracles import check_detection


class ConcurrentModel(LockstepModel):
    """Explorable model of threads sharing one lock manager."""

    backend = "concurrent"

    def open(self, scheduler):
        return Worlds(ShardedLockCore(
            policy="continuous" if self.continuous else "periodic"
        ))

    def periodic(self):
        return not self.continuous

    def after_lock(self, worlds, actor, access):
        detection = worlds.subject.last_detection
        if not self.continuous or detection is None:
            return []
        worlds.stats.detection_checks += 1
        worlds.counters["detects"] += 1
        # The block that triggered the rooted check is what may have
        # created the cycle, so "was it deadlocked before" is exactly
        # "did the check find one".
        return check_detection(
            detection, detection.deadlock_found, worlds.subject.table
        )
