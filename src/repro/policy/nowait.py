"""The nowait/ordered lane: a deadlock-free policy with zero detector
cost.

Brook-2PL-style ordered locking (PAPERS.md): impose one global total
order on resources — here plain resource-id string order, which needs
no coordination across shards or worker cores — and refuse the
waits that could ever close a cycle.  A request that blocks
*in order* waits as usual; a request that blocks *out of order* aborts
the requester on the spot.  The H/W-TWBG then stays acyclic by
construction, so no detector needs to run at all
(``wants_periodic = False``): that is the policy's "zero detector
cost" end of the trade-off curve, bought with prevention aborts under
contention.

The rule (:func:`wait_is_ordered`)
----------------------------------

* A **queue wait** of ``T`` at resource ``R`` is allowed iff
  ``order(R) > order(r)`` for every resource ``r`` that ``T`` holds.
* A **conversion wait** (``T`` already holds ``R``) is allowed iff
  ``R`` is the maximum of ``T``'s holdings *and* no other holder of
  ``R`` is already conversion-blocked.

Why this is deadlock-free: an H/W-TWBG cycle decomposes into TRRPs
(Section 4); each junction transaction holds the TRRP's resource and
waits at the previous TRRP's resource.  Write ``W(T)`` for the
resource a blocked ``T`` waits at.  For a queue waiter the rule gives
``order(W(T)) > order(r)`` for all held ``r``; for a converter it
gives ``order(W(T)) >= order(r)`` with equality only at ``W(T)``
itself.  Following a cycle, each waited-at resource is held by the
next transaction, so the orders are non-decreasing around the cycle
with a strict increase at every queue wait — a contradiction unless
*every* member is a converter at one and the same resource, which the
one-blocked-converter-per-resource clause forbids.

The simulator's ``nowait`` comparison lane runs this very policy on the
same lock core, so what the X11 sweep measures is what ``serve
--policy nowait`` does.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .base import DetectionPolicy

#: The Aborted-event reason the lane publishes (distinct from the
#: detector's "deadlock victim" so accounting can tell them apart).
ABORT_REASON = "nowait policy (out-of-order wait)"


def wait_is_ordered(
    held: Iterable[str],
    rid: str,
    conversion: bool,
    blocked_converters: int = 1,
) -> bool:
    """Whether a blocked request may wait under the ordered rule.

    ``held`` is everything the requester holds (``rid`` itself may be
    included for conversions); ``blocked_converters`` counts the
    conversion-blocked holders of ``rid`` *including* the requester.
    """
    others = [r for r in held if r != rid]
    if conversion:
        if blocked_converters > 1:
            return False
        return all(r <= rid for r in others)
    return all(r < rid for r in others)


def evaluate_block(table, tid: int, rid: str) -> bool:
    """Apply :func:`wait_is_ordered` to a live table where ``tid`` just
    blocked at ``rid``.  ``table`` may be a single
    :class:`~repro.lockmgr.lock_table.LockTable` or the sharded core's
    merged view — both serve ``held_by`` and ``existing``."""
    state = table.existing(rid)
    entry = state.holder_entry(tid)
    conversion = entry is not None and entry.is_blocked
    blocked_converters = (
        sum(1 for holder in state.holders if holder.is_blocked)
        if conversion
        else 1
    )
    return wait_is_ordered(
        table.held_by(tid), rid, conversion, blocked_converters
    )


class NoWaitPolicy(DetectionPolicy):
    """Abort out-of-order conflicting waits at block time.

    ``on_block`` runs under the owning shard's mutex: when the ordered
    rule rejects the wait, the requester's entries *on that shard* are
    released immediately (undoing the block and freeing any grants it
    was gating) and the requester is reported aborted through the same
    :class:`~repro.core.detection.DetectionResult` channel a detector
    uses — the facade raises
    :class:`~repro.core.errors.TransactionAborted`, the owner's abort
    then releases the transaction's other-shard holdings (strict 2PL).
    """

    name = "nowait"
    deadlock_free = True
    wants_periodic = False

    def __init__(self) -> None:
        #: Prevention aborts this policy decided (telemetry reads it).
        self.aborts = 0

    def on_block(self, host, tid, rid, mode) -> Optional[object]:
        # Imported lazily: this package sits below the managers, which
        # the detection module's scheduler import would cycle through.
        from ..core.detection import DetectionResult
        from ..lockmgr import scheduler

        if evaluate_block(host.table, tid, rid):
            return None
        self.aborts += 1
        owner = getattr(host, "shard_for", None)
        if owner is not None:
            shard = owner(rid)
            grants = scheduler.release_all(shard.table, tid)
            shard.epoch += 1
        else:
            grants = scheduler.release_all(host.table, tid)
        result = DetectionResult(aborted=[tid], grants=grants)
        result.abort_reason = ABORT_REASON
        return result

    def describe(self):
        return {"name": self.name, "nowait_aborts": self.aborts}
