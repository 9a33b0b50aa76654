"""The paper's own two schemes as policies.

:class:`PeriodicPolicy` is the **default** and overrides no hook, so a
manager constructed with it behaves bit-for-bit like the pre-policy
code — requests wait quietly, passes run at the caller's fixed cadence,
nothing else happens.  The explorer's policy-equivalence oracle
(:mod:`repro.check.policy`) pins this down by driving the
policy-threaded manager and the raw Section-3/5 machinery through
identical schedules.

:class:`ContinuousPolicy` is the companion algorithm (reference [17]):
a rooted detection after every blocking request.  It declares
``continuous = True`` so shard resolution refuses more than one shard
(the rooted check is a whole-graph operation).
"""

from __future__ import annotations

from ..core.detection import detect_once
from .base import DetectionPolicy


class PeriodicPolicy(DetectionPolicy):
    """Section 5's periodic scheme: the do-nothing-between-passes
    default (``allow_tdr2=False`` is the A2 ablation: abort-only
    resolution)."""

    name = "periodic"

    def __init__(self, allow_tdr2: bool = True) -> None:
        self.allow_tdr2 = allow_tdr2


class ContinuousPolicy(DetectionPolicy):
    """The continuous companion: rooted check on every block.

    The paper presents its periodic algorithm "as a companion of the
    continuous one": instead of sweeping all transactions every period,
    the continuous scheme checks for deadlock *whenever a lock request
    cannot be granted immediately*, searching only from the transaction
    that just blocked.  Any cycle must pass through that transaction
    (every other cycle already existed and was resolved when ITS last
    edge appeared), so one rooted walk suffices.

    The check is :func:`~repro.core.detection.detect_once` rooted at
    the blocked transaction — same TST encoding, same TDR candidates,
    same Step-3 confirmation as the periodic pass — which keeps the two
    schemes byte-for-byte comparable for the period-sweep experiment
    (A3): the continuous scheme pays graph construction on every block
    but resolves deadlocks with zero latency; the periodic one amortizes
    construction but leaves deadlocked transactions stalled for up to a
    period.  The host is single-shard by construction (shard resolution
    refuses more), so ``host.table`` is the real table.
    """

    name = "continuous"
    continuous = True

    def on_block(self, host, tid, rid, mode):
        return detect_once(host.table, host.costs, roots=[tid])
