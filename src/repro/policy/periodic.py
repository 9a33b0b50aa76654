"""The paper's own two schemes as policies.

:class:`PeriodicPolicy` is the **default** and overrides no hook, so a
manager constructed with it behaves bit-for-bit like the pre-policy
code — requests wait quietly, passes run at the caller's fixed cadence,
nothing else happens.  The explorer's policy-equivalence oracle
(:mod:`repro.check.policy`) pins this down by driving the
policy-threaded manager and the raw Section-3/5 machinery through
identical schedules.

:class:`ContinuousPolicy` is the companion algorithm (reference [17]):
a rooted detection after every blocking request.  It owns the
:class:`~repro.core.continuous.ContinuousDetector` that the managers
used to construct inline, and declares ``continuous = True`` so shard
resolution refuses more than one shard (the rooted check is a
whole-graph operation).
"""

from __future__ import annotations

from .base import DetectionPolicy


class PeriodicPolicy(DetectionPolicy):
    """Section 5's periodic scheme: the do-nothing-between-passes
    default (``allow_tdr2=False`` is the A2 ablation: abort-only
    resolution)."""

    name = "periodic"

    def __init__(self, allow_tdr2: bool = True) -> None:
        self.allow_tdr2 = allow_tdr2


class ContinuousPolicy(DetectionPolicy):
    """The continuous companion: rooted check on every block."""

    name = "continuous"
    continuous = True

    def __init__(self) -> None:
        self._detector = None

    def bind(self, host) -> "ContinuousPolicy":
        from ..core.continuous import ContinuousDetector

        # The host is single-shard by construction (shard resolution
        # refuses more); the rooted check runs on the real table.
        table = (
            host.shards[0].table if hasattr(host, "shards") else host.table
        )
        self._detector = ContinuousDetector(table, host.costs)
        return self

    def on_block(self, host, tid, rid, mode):
        return self._detector.on_block(tid)
