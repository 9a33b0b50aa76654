"""Lock-table records: holder entries, queue entries and resource state.

The paper's lock table (Section 2) keeps, for every locked resource:

* a **holder list** — entries ``(tid, gm, bm)`` where ``gm`` is the granted
  mode and ``bm`` is the blocked (conversion) mode, ``NL`` when the holder
  is not waiting on a conversion;
* a **queue** — entries ``(tid, bm)`` of new requestors waiting FIFO;
* the **total mode** ``tm`` of the holders —
  ``Conv(...Conv(Conv(gm1, bm1), gm2)..., bmn)``.

These records are plain data plus consistency helpers; the scheduling
policy that mutates them according to Section 3 lives in
:mod:`repro.lockmgr.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import LockTableError
from .modes import (
    CONFLICT_MASKS,
    MODE_COUNT,
    SUP_OF_MASK,
    LockMode,
    compatible,
)

_NL = LockMode.NL

@dataclass(slots=True)
class HolderEntry:
    """One member of a resource's holder list: ``(tid, gm, bm)``.

    ``blocked`` is ``NL`` while the holder is not waiting; when a lock
    conversion cannot be granted, ``blocked`` records the *target* mode
    ``Conv(gm, requested)`` the holder is waiting to reach.
    """

    tid: int
    granted: LockMode
    blocked: LockMode = _NL

    @property
    def is_blocked(self) -> bool:
        """True while this holder waits on a lock conversion."""
        return self.blocked is not _NL

    def copy(self) -> "HolderEntry":
        return HolderEntry(self.tid, self.granted, self.blocked)

    def __str__(self) -> str:
        return "({}, {}, {})".format(
            _tname(self.tid), self.granted.name, self.blocked.name
        )


@dataclass(slots=True)
class QueueEntry:
    """One member of a resource's queue: ``(tid, bm)``."""

    tid: int
    blocked: LockMode

    def copy(self) -> "QueueEntry":
        return QueueEntry(self.tid, self.blocked)

    def __str__(self) -> str:
        return "({}, {})".format(_tname(self.tid), self.blocked.name)


def _tname(tid: int) -> str:
    """Render a transaction id in the paper's ``T<i>`` style."""
    return "T{}".format(tid)


class ResourceState:
    """Complete lock-table entry for one resource.

    The ``total`` field caches the paper's total mode.  Beyond it, the
    state memoizes three queue summaries so the scheduler's hot path is
    O(1) instead of a holder-list scan:

    * the **granted-group / blocked-group masks** (bit sets over the mode
      values) — one AND against a conflict mask answers "compatible with
      every other holder?", and ``SUP_OF_MASK[granted | blocked]`` *is*
      the total mode (the conversion fold equals the join of the set of
      modes present, because ``Conv`` is a lattice join);
    * per-mode **counts** of granted and blocked holder modes behind the
      masks, kept incrementally by the mutators — only while there are
      **two or more holders**: a sole holder's modes *are* the masks;
    * the **AV-prefix boundary** — the leading run of queue entries
      compatible with the total mode (TDR-2's AV set) — cached lazily
      and keyed by ``(total, len(queue))``, so it survives unrelated
      mutations and self-invalidates on grants and repositionings.

    ``queue`` is the FIFO queue, front first: a list from the first
    waiter in to the last out, ``()`` while nobody waits (surgery:
    assign, or :meth:`enqueue`).

    Mutation must go through the mutator methods (``add_holder``,
    ``set_holder_modes``, ``enqueue`` …).  Code that performs direct
    list surgery instead (the notation/serialize loaders, the baseline
    policies) must call :meth:`recompute_total`, which resynchronizes
    every summary from scratch — the long-standing convention for
    out-of-band edits, now load-bearing.  ``verify_table`` cross-checks
    all summaries against a rescan.
    """

    __slots__ = (
        "rid", "holders", "queue", "total", "_granted_mask",
        "_blocked_mask", "_granted_counts", "_blocked_counts", "_av_cache",
    )

    def __init__(
        self,
        rid: str,
        holders: Optional[List[HolderEntry]] = None,
        queue: Optional[List[QueueEntry]] = None,
        total: LockMode = _NL,
    ) -> None:
        self.rid = rid
        self.holders = holders if holders is not None else []
        self.queue: Sequence[QueueEntry] = queue or ()
        # Left exactly as passed (tests build deliberately inconsistent
        # totals to exercise the verifier).
        self.total = total
        self._granted_mask = self._blocked_mask = 0
        self._granted_counts = self._blocked_counts = None
        self._av_cache: Optional[Tuple[LockMode, int, int]] = None
        if holders:
            self._resync_summaries()

    # -- cached summaries -------------------------------------------------

    def _resync_summaries(self) -> None:
        """Rebuild every summary from the lists (O(holders))."""
        holders = self.holders
        granted = blocked = None
        if len(holders) > 1:
            granted = [0] * MODE_COUNT
            blocked = [0] * MODE_COUNT
        granted_mask = blocked_mask = 0
        for entry in holders:
            granted_mask |= 1 << entry.granted
            if entry.blocked is not _NL:
                blocked_mask |= 1 << entry.blocked
            if granted is not None:
                granted[entry.granted] += 1
                blocked[entry.blocked] += entry.blocked is not _NL
        self._granted_counts = granted
        self._blocked_counts = blocked
        self._granted_mask = granted_mask
        self._blocked_mask = blocked_mask
        self._av_cache = None

    def _count(self, entry: HolderEntry, delta: int) -> None:
        """Count ``entry``'s modes into (+1) or out of (-1) the
        summaries of a resource that keeps count lists."""
        granted, blocked = entry.granted, entry.blocked
        counts = self._granted_counts
        counts[granted] += delta
        if counts[granted]:
            self._granted_mask |= 1 << granted
        else:
            self._granted_mask &= ~(1 << granted)
        if blocked is not _NL:
            counts = self._blocked_counts
            counts[blocked] += delta
            if counts[blocked]:
                self._blocked_mask |= 1 << blocked
            else:
                self._blocked_mask &= ~(1 << blocked)

    def conversion_compatible(
        self, holder: HolderEntry, wanted: LockMode
    ) -> bool:
        """True when ``wanted`` is compatible with the granted mode of
        every holder other than ``holder`` (one AND)."""
        counts = self._granted_counts
        if counts is None:  # ``holder`` is the only one
            return True
        others = self._granted_mask
        if counts[holder.granted] == 1:
            others &= ~(1 << holder.granted)
        return not (CONFLICT_MASKS[wanted] & others)

    def av_prefix_length(self) -> int:
        """Length of the leading queue run compatible with the total
        mode (TDR-2's AV prefix), memoized until the total mode or the
        queue length changes; repositionings invalidate explicitly."""
        queue = self.queue
        cache = self._av_cache
        if (
            cache is not None
            and cache[0] is self.total
            and cache[1] == len(queue)
        ):
            return cache[2]
        total = self.total
        boundary = 0
        for entry in queue:
            if not compatible(total, entry.blocked):
                break
            boundary += 1
        self._av_cache = (total, len(queue), boundary)
        return boundary

    def summary_snapshot(self) -> dict:
        """The raw cached summaries (for the verifier and debugging)."""
        granted, blocked = self._granted_counts, self._blocked_counts
        if granted is None:
            granted = [self._granted_mask >> m & 1 for m in range(MODE_COUNT)]
            blocked = [self._blocked_mask >> m & 1 for m in range(MODE_COUNT)]
        return {
            "granted_counts": tuple(granted),
            "blocked_counts": tuple(blocked),
            "granted_mask": self._granted_mask,
            "blocked_mask": self._blocked_mask,
            "av_cache": self._av_cache,
        }

    # -- lookups ---------------------------------------------------------

    def holder_entry(self, tid: int) -> Optional[HolderEntry]:
        """The holder entry of ``tid``, or ``None`` if not a holder."""
        for entry in self.holders:
            if entry.tid == tid:
                return entry
        return None

    def queue_entry(self, tid: int) -> Optional[QueueEntry]:
        """The queue entry of ``tid``, or ``None`` if not queued."""
        for entry in self.queue:
            if entry.tid == tid:
                return entry
        return None

    def queue_position(self, tid: int) -> int:
        """Index of ``tid`` in the queue, or -1."""
        for index, entry in enumerate(self.queue):
            if entry.tid == tid:
                return index
        return -1

    def is_held_by(self, tid: int) -> bool:
        return self.holder_entry(tid) is not None

    def blocked_holders(self) -> List[HolderEntry]:
        """Holders currently waiting on a conversion, in list order."""
        return [entry for entry in self.holders if entry.is_blocked]

    def unblocked_holders(self) -> List[HolderEntry]:
        """Holders not waiting, in list order."""
        return [entry for entry in self.holders if not entry.is_blocked]

    def waiting_tids(self) -> List[int]:
        """All transactions blocked at this resource (conversions first,
        then queue, each in list order)."""
        tids = [entry.tid for entry in self.blocked_holders()]
        tids.extend(entry.tid for entry in self.queue)
        return tids

    @property
    def is_free(self) -> bool:
        """True when no holder and no waiter remains."""
        return not self.holders and not self.queue

    # -- mutation helpers (summary maintenance) --------------------------

    def recompute_total(self) -> LockMode:
        """Resynchronize every cached summary from the lists and return
        the recomputed total mode (paper §3 names this for holder
        deletion; it is also the mandatory resync after direct list
        surgery).  Queue entries do not contribute — the total mode
        summarizes *holders* only."""
        self._resync_summaries()
        self.total = SUP_OF_MASK[self._granted_mask | self._blocked_mask]
        return self.total

    def raise_total(self, mode: LockMode) -> None:
        """Join ``mode`` into the cached total mode (manual maintenance
        for callers doing their own surgery; the mutators below keep the
        total fresh on their own)."""
        from .modes import convert

        self.total = convert(self.total, mode)

    def add_holder(self, entry: HolderEntry, index: Optional[int] = None) -> None:
        """Insert ``entry`` into the holder list (append when ``index``
        is ``None``), updating masks, counts and the total mode."""
        holders = self.holders
        if index is None:
            holders.append(entry)
        else:
            holders.insert(index, entry)
        if len(holders) == 1:
            self._granted_mask = 1 << entry.granted
            self._blocked_mask = (1 << entry.blocked) & ~1
        elif len(holders) == 2:
            self._resync_summaries()
        else:
            self._count(entry, +1)
        self.total = SUP_OF_MASK[self._granted_mask | self._blocked_mask]

    def set_holder_modes(
        self,
        entry: HolderEntry,
        granted: Optional[LockMode] = None,
        blocked: Optional[LockMode] = None,
    ) -> None:
        """Change a holder's granted and/or blocked mode through the
        summaries (grant-conversion, block-conversion and the sweep's
        ``bm -> gm`` swap all come through here)."""
        counted = self._granted_counts is not None
        if counted:
            self._count(entry, -1)
        if granted is not None:
            entry.granted = granted
        if blocked is not None:
            entry.blocked = blocked
        if counted:
            self._count(entry, +1)
        else:  # the sole holder's modes are the summary
            self._resync_summaries()
        self.total = SUP_OF_MASK[self._granted_mask | self._blocked_mask]

    def remove_holder(self, tid: int) -> HolderEntry:
        """Delete ``tid`` from the holder list and refresh the total
        from the counts — O(1), no holder-list rescan.

        Raises :class:`LockTableError` if ``tid`` is not a holder.
        """
        holders = self.holders
        for index, entry in enumerate(holders):
            if entry.tid == tid:
                removed = holders.pop(index)
                if len(holders) > 1:
                    self._count(removed, -1)
                else:
                    self._resync_summaries()
                self.total = SUP_OF_MASK[
                    self._granted_mask | self._blocked_mask
                ]
                return removed
        raise LockTableError(
            "transaction {} is not a holder of {}".format(tid, self.rid)
        )

    def enqueue(self, entry: QueueEntry) -> None:
        """Append ``entry`` to the FIFO queue."""
        if self.queue:
            self.queue.append(entry)
        else:
            self.queue = [entry]
        self._av_cache = None

    def dequeue(self, position: int = 0) -> QueueEntry:
        """Remove and return the queue entry at ``position`` (default:
        the front, the grant path)."""
        entry = self.queue.pop(position)
        if not self.queue:
            self.queue = ()  # last waiter out
        self._av_cache = None
        return entry

    def set_queue_order(self, entries: List[QueueEntry]) -> None:
        """Replace the queue with a reordering of itself (TDR-2's
        repositioning) and drop the AV-prefix memo — same length and
        total, so the keyed cache cannot see the change on its own."""
        self.queue = list(entries) or ()
        self._av_cache = None

    def remove_from_queue(self, tid: int) -> QueueEntry:
        """Delete ``tid`` from the queue.

        Raises :class:`LockTableError` if ``tid`` is not queued.
        """
        position = self.queue_position(tid)
        if position < 0:
            raise LockTableError(
                "transaction {} is not queued at {}".format(tid, self.rid)
            )
        return self.dequeue(position)

    # -- presentation ----------------------------------------------------

    def copy(self) -> "ResourceState":
        """Deep copy (for snapshots taken by detectors and tests)."""
        return ResourceState(
            self.rid,
            [HolderEntry(e.tid, e.granted, e.blocked) for e in self.holders],
            [QueueEntry(e.tid, e.blocked) for e in self.queue],
            self.total,
        )

    def __str__(self) -> str:
        holders = " ".join(str(entry) for entry in self.holders)
        queue = " ".join(str(entry) for entry in self.queue)
        return "{}({}): Holder({}) Queue({})".format(
            self.rid, self.total.name, holders, queue
        )

    def __iter__(self) -> Iterator[HolderEntry]:
        return iter(self.holders)
