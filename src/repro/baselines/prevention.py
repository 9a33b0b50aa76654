"""Timestamp-based deadlock *prevention*: wound-wait and wait-die.

Rosenkrantz/Stearns/Lewis schemes, included because Agrawal, Carey and
McVoy's strategy study (the paper's reference [2]) uses them as the
classic alternatives to detection.  Both consult transaction timestamps
*before* a wait is allowed, so deadlock never forms — at the price of
aborts for conflicts that would have resolved themselves:

* **wait-die**: an older requester may wait for a younger holder; a
  younger requester "dies" (aborts itself) instead of waiting.
* **wound-wait**: an older requester "wounds" (aborts) younger holders
  and takes their place; a younger requester is allowed to wait.

Timestamps are assigned on first sight and kept while the transaction
is in the lock table (the tick drops the rest: under strict 2PL a
stamped transaction leaves the table only by finishing); a restarted
transaction receives a fresh (younger) timestamp from its new tid,
which preserves the schemes' liveness argument in our driver because
tids increase monotonically.

One subtlety the textbook statement glosses over: under FIFO queues and
lock conversions a blocked transaction's *blocker set changes over
time* — a grant can reshuffle the holder list so that an old transaction
suddenly waits for a young one even though its original wait was legal.
Checking only at enqueue time therefore does NOT prevent all deadlocks
in this model (the simulator's oracle catches the residue).  Both
policies here also revalidate every blocked transaction on the tick
hook, which restores the schemes' guarantee at the cost of periodic
rescans — the same fix a real lock manager applies by re-running the
timestamp test whenever a wait is retargeted.
"""

from __future__ import annotations

from typing import Dict, List

from ..policy.base import DetectionPolicy
from .jiang import direct_blockers
from .wfg import release_victims

#: The Aborted-event reason of a timestamp refusal.
ABORT_REASON = "prevention (timestamp order)"


class _TimestampPolicy(DetectionPolicy):
    wants_periodic = False

    def __init__(self) -> None:
        self._timestamps: Dict[int, float] = {}
        self._next_stamp = 0.0

    def _stamp(self, tid: int) -> float:
        if tid not in self._timestamps:
            self._next_stamp += 1.0
            self._timestamps[tid] = self._next_stamp
        return self._timestamps[tid]

    def veto(self, requester: int, holders: List[int]) -> List[int]:
        """Who aborts instead of ``requester`` waiting for ``holders``
        (possibly the requester itself); empty to let it wait."""
        raise NotImplementedError

    def _abort(self, host, victims: List[int]):
        result = release_victims(host, victims)
        result.abort_reason = ABORT_REASON
        return result

    def on_block(self, host, tid, rid, mode):
        blockers = sorted(direct_blockers(host.table.existing(rid), tid))
        victims = self.veto(tid, blockers)
        return self._abort(host, victims) if victims else None

    def on_tick(self, host):
        """Revalidate every blocked transaction against its *current*
        blockers (grant reshuffles can retarget waits)."""
        table = host.table
        self._timestamps = {
            tid: stamp
            for tid, stamp in self._timestamps.items()
            if table.knows(tid)
        }
        doomed: List[int] = []
        for tid in table.blocked_tids():
            rid = table.blocked_at(tid)
            blockers = [
                b
                for b in sorted(direct_blockers(table.existing(rid), tid))
                if b not in doomed
            ]
            for victim in self.veto(tid, blockers):
                if victim not in doomed:
                    doomed.append(victim)
        return self._abort(host, doomed) if doomed else None


class WaitDiePolicy(_TimestampPolicy):
    """Younger requesters die instead of waiting."""

    name = "wait-die"

    def veto(self, requester: int, holders: List[int]) -> List[int]:
        my_stamp = self._stamp(requester)
        for holder in holders:
            if my_stamp > self._stamp(holder):
                # Requester is younger than a holder: die.
                return [requester]
        return []


class WoundWaitPolicy(_TimestampPolicy):
    """Older requesters wound younger holders; younger requesters wait."""

    name = "wound-wait"

    def veto(self, requester: int, holders: List[int]) -> List[int]:
        my_stamp = self._stamp(requester)
        return [
            holder for holder in holders if self._stamp(holder) > my_stamp
        ]
