"""The lock table: every locked resource's state plus two indexes.

The paper's lock manager (Section 2) "maintains a lock table which holds,
for each resource being locked, a holder list, a queue and a total mode of
the holders".  This class stores those :class:`ResourceState` records and
two derived indexes the algorithms need constantly:

* ``held_by(tid)`` — the resources a transaction currently appears in as a
  holder (strict 2PL releases them all at transaction end);
* ``blocked_at(tid)`` — the single resource a transaction is blocked at,
  or ``None``.  Axiom 1 of the paper ("no transaction appears more than
  once in the queue of the whole system") is enforced here: a blocked
  transaction cannot issue another request, so it can wait at one place
  only.

The table also owns the **first-lock sequence**: a resource draws a
number when its entry is created and gives it up when the entry is
dropped, so any subset of resources — above all the *waiting structure*
a detector pass reads — sorts into first-lock order without a table
walk, and slices of a partitioned table (shards, cluster workers) that
share one counter merge into the order a single table would have had.

All mutation goes through :mod:`repro.lockmgr.scheduler`; the table itself
only offers consistent primitive updates.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..core.errors import LockTableError, UnknownResourceError
from ..core.requests import ResourceState


class FirstLockSequence:
    """The local first-lock counter (``next`` on ``itertools.count`` is
    atomic, so shards share one without a lock)."""

    def __init__(self) -> None:
        self._count = itertools.count()

    def __call__(self) -> int:
        return next(self._count)

    def advance_past(self, seq: int) -> None:
        """Make every later draw exceed ``seq`` (journal replay)."""
        self._count = itertools.count(max(next(self._count), seq + 1))


class LockTable:
    """Mapping of resource identifier to :class:`ResourceState` with
    transaction-side indexes.  ``sequence`` is the first-lock counter (a
    zero-argument callable; default: a private one)."""

    def __init__(self, sequence: Optional[Callable[[], int]] = None) -> None:
        self._resources: Dict[str, ResourceState] = {}
        self._seq: Dict[str, int] = {}
        self._sequence = (
            sequence if sequence is not None else FirstLockSequence()
        )
        self._held: Dict[int, Set[str]] = {}
        self._blocked_at: Dict[int, str] = {}
        self._blocked_in_queue: Dict[int, bool] = {}

    # -- resource access -------------------------------------------------

    def resource(self, rid: str) -> ResourceState:
        """The state of ``rid``, creating an empty entry on first use."""
        state = self._resources.get(rid)
        if state is None:
            state = ResourceState(rid=rid)
            self._resources[rid] = state
            self._seq[rid] = self._sequence()
        return state

    def existing(self, rid: str) -> ResourceState:
        """The state of ``rid``; raises if the resource is not locked."""
        try:
            return self._resources[rid]
        except KeyError:
            raise UnknownResourceError(rid) from None

    def drop_if_free(self, rid: str) -> None:
        """Remove the entry of ``rid`` when no holder or waiter remains,
        keeping the table proportional to the locked set."""
        state = self._resources.get(rid)
        if state is not None and state.is_free:
            del self._resources[rid]
            del self._seq[rid]

    def install(self, state: ResourceState) -> None:
        """Adopt a fully-built state (merge and deserialize paths):
        store it under its rid and rebuild the transaction-side indexes
        from its holder list and queue."""
        if state.rid in self._resources:
            raise LockTableError(
                "resource {} is already present".format(state.rid)
            )
        self._resources[state.rid] = state
        self._seq[state.rid] = self._sequence()
        for holder in state.holders:
            self.note_holder(holder.tid, state.rid)
            if holder.is_blocked:
                self.note_blocked(holder.tid, state.rid, in_queue=False)
        for waiter in state.queue:
            self.note_blocked(waiter.tid, state.rid, in_queue=True)

    def resources(self) -> Iterator[ResourceState]:
        """All locked resources (iteration order = first-lock order)."""
        return iter(self._resources.values())

    def resource_ids(self) -> List[str]:
        return list(self._resources)

    def __contains__(self, rid: str) -> bool:
        return rid in self._resources

    def __len__(self) -> int:
        return len(self._resources)

    # -- first-lock order and the waiting structure -----------------------

    def sequence_of(self, rid: str) -> Optional[int]:
        """The first-lock number of ``rid`` (None when not locked)."""
        return self._seq.get(rid)

    def restore_sequence(self, rid: str, seq: int) -> None:
        """Force the number of a present ``rid`` (journal replay); a
        local counter moves past it so fresh draws stay unique."""
        self._seq[rid] = seq
        if isinstance(self._sequence, FirstLockSequence):
            self._sequence.advance_past(seq)

    def waiting_resources(self) -> List[ResourceState]:
        """The resources some transaction is blocked at (a non-empty
        queue or a blocked conversion) in first-lock order — the only
        ones ECR-1/2/3 draw an edge at.  O(blocked), no table walk."""
        rids = set(self._blocked_at.values())
        return [
            self._resources[rid]
            for rid in sorted(rids, key=self._seq.__getitem__)
        ]

    # -- transaction-side indexes -----------------------------------------

    def held_by(self, tid: int) -> Set[str]:
        """Resource ids where ``tid`` is currently in the holder list."""
        return set(self._held.get(tid, ()))

    def blocked_at(self, tid: int) -> Optional[str]:
        """The resource ``tid`` is blocked at, or ``None`` if runnable."""
        return self._blocked_at.get(tid)

    def is_blocked(self, tid: int) -> bool:
        return tid in self._blocked_at

    def blocked_in_queue(self, tid: int) -> bool:
        """True when ``tid`` waits in a queue (False: blocked conversion,
        i.e. waiting inside a holder list)."""
        return self._blocked_in_queue.get(tid, False)

    def blocked_tids(self) -> List[int]:
        """All blocked transactions, in no particular order."""
        return list(self._blocked_at)

    def blocked_count(self) -> int:
        """Number of blocked transactions — O(1), no list build (use
        this for gauges and guards instead of ``len(blocked_tids())``)."""
        return len(self._blocked_at)

    def active_tids(self) -> Set[int]:
        """Every transaction appearing anywhere in the table."""
        tids = set(self._held)
        tids.update(self._blocked_at)
        return tids

    def saturated(self) -> bool:
        """Somebody is blocked and every holder is — a proven deadlock:
        every wait chain ends at a holder, so the wait-for graph has no
        sink, hence a cycle.  Count test first, then O(holders)."""
        blocked, held = self._blocked_at, self._held
        if not blocked or len(blocked) < len(held):
            return False
        return held.keys() <= blocked.keys()

    # -- index maintenance (called by the scheduler) ----------------------

    def note_holder(self, tid: int, rid: str) -> None:
        self._held.setdefault(tid, set()).add(rid)

    def forget_holder(self, tid: int, rid: str) -> None:
        rids = self._held.get(tid)
        if rids is not None:
            rids.discard(rid)
            if not rids:
                del self._held[tid]

    def note_blocked(self, tid: int, rid: str, in_queue: bool) -> None:
        current = self._blocked_at.get(tid)
        if current is not None and current != rid:
            raise LockTableError(
                "transaction {} is already blocked at {} and cannot also "
                "wait at {}".format(tid, current, rid)
            )
        self._blocked_at[tid] = rid
        self._blocked_in_queue[tid] = in_queue

    def forget_blocked(self, tid: int) -> None:
        self._blocked_at.pop(tid, None)
        self._blocked_in_queue.pop(tid, None)

    # -- presentation ------------------------------------------------------

    def snapshot(self) -> List[ResourceState]:
        """Deep copies of every resource (for detectors' what-if analyses
        and for tests)."""
        return [state.copy() for state in self._resources.values()]

    def __str__(self) -> str:
        return "\n".join(str(state) for state in self._resources.values())
