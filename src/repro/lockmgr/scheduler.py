"""The scheduling policy of Section 3.

Lock requests are honored first-in-first-out except for lock conversions:

* A **new requestor** joins the FIFO queue unless the queue is empty *and*
  its mode is compatible with the resource's total mode, in which case it
  is granted immediately.
* A **lock conversion** (the requestor already holds the resource) jumps
  the queue: the target mode ``Conv(gm, requested)`` is computed and the
  conversion is granted when that target is compatible with the granted
  modes of all *other* holders.  A blocked conversion stays in the holder
  list with ``bm`` set to the target mode, repositioned by the **Upgrader
  Positioning Rule (UPR)**.

The UPR (backed by Observation 3.1) orders blocked conversions so that
Theorem 3.1 holds: if an earlier blocked conversion cannot be granted,
no later one can be either — which lets the release-time sweep stop at
the first non-grantable conversion.

Two occasions trigger the **grant sweep** (:func:`sweep`): a holder leaves
(commit or abort) and the first queue member leaves (abort).  The sweep
first tries blocked conversions from the front of the holder list, then
FIFO-grants queue members while their modes remain compatible with the
total mode.

Invariant maintained throughout: within a holder list, all blocked
conversions precede all unblocked holders (UPR places blocked entries in
the blocked prefix; grants move entries just behind it).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.errors import LockTableError
from ..core.modes import COMPAT_ROWS, LockMode, compatible, convert
from ..core.requests import HolderEntry, QueueEntry, ResourceState
from .events import Blocked, Granted, RequestOutcome
from .lock_table import LockTable


def request(
    table: LockTable, tid: int, rid: str, mode: LockMode
) -> RequestOutcome:
    """Handle a lock request of ``tid`` for ``rid`` in ``mode`` (Section 3).

    Returns the request's own event: one ``Granted`` (immediate) or one
    ``Blocked``.

    Raises :class:`LockTableError` when the transaction is already blocked
    (the sequential model allows at most one outstanding request) or when
    ``mode`` is ``NL`` (not a request).
    """
    if mode is LockMode.NL:
        raise LockTableError("NL is not a requestable lock mode")
    state = table.resource(rid, requestor=tid)
    for holder in state.holders:
        if holder.tid == tid:
            return _request_conversion(table, state, holder, mode)
    # A new requestor: granted at once when nobody queues and its mode
    # is compatible with the total mode, appended to the holder list.
    if not state.queue and COMPAT_ROWS[state.total][mode]:
        state.add_holder(HolderEntry(tid, mode))
        table.note_holder(tid, rid)
        return Granted(tid, rid, mode, True)
    state.enqueue(QueueEntry(tid, mode))
    table.note_blocked(tid, rid, in_queue=True)
    return Blocked(tid, rid, mode, conversion=False)


def _request_conversion(
    table: LockTable,
    state: ResourceState,
    holder: HolderEntry,
    mode: LockMode,
) -> RequestOutcome:
    """A holder re-requests the resource: compute the conversion target
    and grant it iff compatible with every other holder's granted mode."""
    target = convert(holder.granted, mode)
    if target is holder.granted:
        # Already covered — nothing to wait for; report an immediate grant.
        return Granted(holder.tid, state.rid, holder.granted, True)

    if conversion_grantable(state, holder, target):
        state.set_holder_modes(holder, granted=target)
        return Granted(holder.tid, state.rid, target, True)

    state.set_holder_modes(holder, blocked=target)
    _apply_upr(state, holder)
    table.note_blocked(holder.tid, state.rid, in_queue=False)
    return Blocked(holder.tid, state.rid, target, conversion=True)


def conversion_grantable(
    state: ResourceState, holder: HolderEntry, target: Optional[LockMode] = None
) -> bool:
    """True when ``holder``'s conversion to ``target`` (default: its
    blocked mode) is compatible with the granted mode of all other
    holders.

    O(1): one AND of the target's conflict mask against the cached
    granted-group mask (with ``holder``'s own contribution removed) —
    ``holder`` must be a current member of ``state``'s holder list.
    """
    wanted = holder.blocked if target is None else target
    return state.conversion_compatible(holder, wanted)


def _blocked_prefix_length(holders: List[HolderEntry]) -> int:
    """Length of the leading run of blocked conversions in a holder
    list (the list invariant keeps all of them at the front)."""
    count = 0
    for entry in holders:
        if not entry.is_blocked:
            break
        count += 1
    return count


def _apply_upr(state: ResourceState, entry: HolderEntry) -> None:
    """Reposition a newly blocked conversion per UPR-1/2/3 (Section 3).

    Pure list surgery — membership and modes are unchanged, so the
    state's cached summaries stay valid throughout."""
    holders = state.holders
    holders.remove(entry)
    holders.insert(_upr_index(holders, entry), entry)


def _upr_index(holders: List[HolderEntry], entry: HolderEntry) -> int:
    """Where UPR places ``entry`` in ``holders`` (given without it)."""
    # UPR-1: before the first blocked request whose bm is compatible
    # with ours (Observation 3.1(1): either could go first; FIFO keeps
    # the earlier arrival earlier, and we slot in just before the first
    # member of that compatible group).
    for index, other in enumerate(holders):
        if other.is_blocked and compatible(other.blocked, entry.blocked):
            return index

    # UPR-2: before the first blocked request that we can precede but
    # not follow (Observation 3.1(2): Comp(bm_i, gm_j) holds while
    # Comp(gm_i, bm_j) fails — scheduling us first is the only order).
    for index, other in enumerate(holders):
        if (
            other.is_blocked
            and compatible(other.granted, entry.blocked)
            and not compatible(other.blocked, entry.granted)
        ):
            return index

    # UPR-3: after all blocked requests, before all unblocked holders.
    return _blocked_prefix_length(holders)


def sweep(table: LockTable, rid: str) -> List[Granted]:
    """Grant whatever became grantable at ``rid`` (Section 3's release
    procedure).  Returns the grant events in grant order.

    Phase 1 walks the blocked-conversion prefix from the front and stops
    at the first non-grantable entry (justified by Theorem 3.1).  A
    granted conversion swaps ``bm`` into ``gm`` and moves just behind the
    remaining blocked prefix; the total mode is unchanged because the
    blocked mode already participated in it.

    Phase 2 FIFO-grants queue members while the front member's mode is
    compatible with the total mode, raising the total with each grant.
    """
    if rid not in table:
        return []
    state = table.existing(rid)
    grants: List[Granted] = []

    while state.holders and state.holders[0].is_blocked:
        entry = state.holders[0]
        if not conversion_grantable(state, entry):
            break
        state.set_holder_modes(
            entry, granted=entry.blocked, blocked=LockMode.NL
        )
        state.holders.pop(0)
        state.holders.insert(_blocked_prefix_length(state.holders), entry)
        table.forget_blocked(entry.tid)
        grants.append(Granted(entry.tid, rid, entry.granted))

    while state.queue and compatible(state.total, state.queue[0].blocked):
        waiter = state.dequeue()
        # Swept grants go just behind the blocked prefix, matching the
        # layouts the paper displays after resolution (Example 4.1's
        # modified R2 and Example 5.1's final R1).
        state.add_holder(
            HolderEntry(waiter.tid, waiter.blocked),
            index=_blocked_prefix_length(state.holders),
        )
        table.note_holder(waiter.tid, rid)
        table.forget_blocked(waiter.tid)
        grants.append(Granted(waiter.tid, rid, waiter.blocked))

    table.drop_if_free(rid)
    return grants


def remove_waiter(table: LockTable, tid: int, rid: str) -> List[Granted]:
    """Remove a queued request (abort of a waiting transaction).

    Only the departure of the *first* queue member can enable grants
    (Section 3); removals further back just shrink the queue.
    """
    state = table.existing(rid)
    position = state.queue_position(tid)
    if position < 0:
        raise LockTableError(
            "transaction {} is not queued at {}".format(tid, rid)
        )
    state.dequeue(position)  # at the position found: one queue scan
    table.forget_blocked(tid)
    if position == 0:
        return sweep(table, rid)
    table.drop_if_free(rid)
    return []


def release_all(table: LockTable, tid: int) -> List[Granted]:
    """Remove every trace of ``tid`` (transaction end: commit or abort)
    and sweep each affected resource, in rid order.  Returns all grant
    events.  A resource ``tid`` held alone with nobody waiting leaves
    nothing to sweep: the table drops it in the same loop that forgets
    the holds."""
    grants: List[Granted] = []
    blocked_rid = table.blocked_at(tid)
    if blocked_rid is not None and table.blocked_in_queue(tid):
        grants.extend(remove_waiter(table, tid, blocked_rid))
    shared = table.drop_sole_holds(tid)
    if len(shared) > 1:
        shared.sort()
    for rid in shared:
        if table.existing(rid).remove_holder(tid).is_blocked:
            table.forget_blocked(tid)
        grants.extend(sweep(table, rid))
    return grants


def reposition_queue(
    table: LockTable, rid: str, av_tids: List[int], st_tids: List[int]
) -> None:
    """Apply TDR-2's queue surgery: move the requests of ``st_tids``
    right after those of ``av_tids`` (both given in current queue order);
    requests behind the examined prefix keep their positions.

    The caller (the detector) is responsible for running the grant sweep
    afterwards — the paper defers that to Step 3 via the change-list.
    """
    state = table.existing(rid)
    prefix = len(av_tids) + len(st_tids)
    queue = list(state.queue)
    examined, rest = queue[:prefix], queue[prefix:]
    by_tid = {entry.tid: entry for entry in examined}
    if set(by_tid) != set(av_tids) | set(st_tids):
        raise LockTableError(
            "AV/ST sets do not match the leading queue entries of "
            "{}".format(rid)
        )
    state.set_queue_order(
        [by_tid[tid] for tid in av_tids]
        + [by_tid[tid] for tid in st_tids]
        + rest
    )
