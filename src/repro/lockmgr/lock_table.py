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
walk, and slices of a partitioned table (shards, the worker cores of :mod:`repro.cluster`) that
share one counter merge into the order a single table would have had.

All mutation goes through :mod:`repro.lockmgr.scheduler`; the table itself
only offers consistent primitive updates.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import LockTableError, UnknownResourceError
from ..core.modes import LockMode
from ..core.requests import ResourceState

_NL = LockMode.NL


class FirstLockSequence:
    """The first-lock counter: a table draws ``next(numbers)`` (atomic
    on ``itertools.count``, so shards share one without a lock).
    ``source`` is an external zero-argument callable to draw from."""

    def __init__(self, source: Optional[Callable[[], int]] = None) -> None:
        self.local = source is None
        self.numbers = itertools.count() if self.local else iter(source, None)

    def advance_past(self, seq: int) -> None:
        """Make every later local draw exceed ``seq`` (journal replay)."""
        if self.local:
            self.numbers = itertools.count(max(next(self.numbers), seq + 1))


class LockTable:
    """Mapping of resource identifier to :class:`ResourceState` with
    transaction-side indexes.  ``sequence`` is the first-lock counter (a
    :class:`FirstLockSequence` or a zero-argument callable; default: a
    private one)."""

    def __init__(self, sequence=None) -> None:
        self._resources: Dict[str, ResourceState] = {}
        self._seq: Dict[str, int] = {}
        self._sequence = (
            sequence
            if isinstance(sequence, FirstLockSequence)
            else FirstLockSequence(sequence)
        )
        self._held: Dict[int, List[str]] = {}  # tid -> rids, grant order
        #: tid -> (rid it is blocked at, True when it waits in the queue).
        self._blocked_at: Dict[int, Tuple[str, bool]] = {}

    # -- resource access -------------------------------------------------

    def resource(
        self, rid: str, requestor: Optional[int] = None
    ) -> ResourceState:
        """The state of ``rid``, creating an empty entry on first use —
        for ``requestor``'s request, which Axiom 1 refuses if blocked."""
        if requestor in self._blocked_at:
            raise LockTableError(
                "transaction {} is blocked at {} and cannot issue another "
                "request".format(requestor, self._blocked_at[requestor][0])
            )
        state = self._resources.get(rid)
        if state is None:
            state = self._resources[rid] = ResourceState(rid)
            self._seq[rid] = next(self._sequence.numbers)
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
            self.drop(rid)

    def drop(self, rid: str) -> None:
        """Remove the entry of ``rid`` and give up its first-lock number."""
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
        self._seq[state.rid] = next(self._sequence.numbers)
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
        self._sequence.advance_past(seq)

    def waiting_resources(self) -> List[ResourceState]:
        """The resources some transaction is blocked at (a non-empty
        queue or a blocked conversion) in first-lock order — the only
        ones ECR-1/2/3 draw an edge at.  O(blocked), no table walk."""
        rids = {rid for rid, _ in self._blocked_at.values()}
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
        where = self._blocked_at.get(tid)
        return where[0] if where is not None else None

    def is_blocked(self, tid: int) -> bool:
        return tid in self._blocked_at

    def knows(self, tid: int) -> bool:
        """True when ``tid`` holds or waits for anything here."""
        return tid in self._held or tid in self._blocked_at

    def blocked_in_queue(self, tid: int) -> bool:
        """True when ``tid`` waits in a queue (False: blocked conversion,
        i.e. waiting inside a holder list)."""
        where = self._blocked_at.get(tid)
        return where is not None and where[1]

    def holders_among(self, tids) -> bool:
        """True when every holder here is in ``tids`` (a set-like)."""
        return self._held.keys() <= tids

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
        rids = self._held.get(tid)
        if rids is None:
            self._held[tid] = [rid]  # exactly one slot: most hold one lock
        else:
            rids.append(rid)

    def forget_holder(self, tid: int, rid: str) -> None:
        rids = self._held.get(tid)
        if rids is not None and rid in rids:
            rids.remove(rid)
            if not rids:
                del self._held[tid]

    def drop_sole_holds(self, tid: int) -> List[str]:
        """Drop ``tid`` from the holder index, and with it every resource
        ``tid`` held alone, unblocked, with nobody queued (its release
        grants nothing).  Returns the rids it shares or converts at, in
        grant order, for the scheduler to remove it from and sweep."""
        resources, seq, shared = self._resources, self._seq, []
        for rid in self._held.pop(tid, ()):
            state = resources[rid]
            holders = state.holders
            if (
                len(holders) == 1
                and holders[0].blocked is _NL
                and not state.queue
            ):
                del resources[rid]
                del seq[rid]
            else:
                shared.append(rid)
        return shared

    def note_blocked(self, tid: int, rid: str, in_queue: bool) -> None:
        current = self._blocked_at.get(tid)
        if current is not None and current[0] != rid:
            raise LockTableError(
                "transaction {} is already blocked at {} and cannot also "
                "wait at {}".format(tid, current[0], rid)
            )
        self._blocked_at[tid] = (rid, in_queue)

    def forget_blocked(self, tid: int) -> None:
        self._blocked_at.pop(tid, None)

    # -- presentation ------------------------------------------------------

    def snapshot(self) -> List[ResourceState]:
        """Deep copies of every resource (for detectors' what-if analyses
        and for tests)."""
        return [state.copy() for state in self._resources.values()]

    def __str__(self) -> str:
        return "\n".join(str(state) for state in self._resources.values())
