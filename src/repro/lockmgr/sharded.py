"""Sharded lock manager: a partitioned RST with a cross-shard detector.

The paper's periodic scheme deliberately decouples *blocking* (RST
queue maintenance at request time, Section 3) from *detection* (a
periodic pass that rebuilds the H/W-TWBG from RST/TST snapshots,
Section 5).  Nothing in the request path ever looks at another
resource, so per-resource state does not need a global mutex — only
the detector needs a whole-system view, and it only needs one that is
*consistent enough* for cycles (which are stable: a deadlocked
transaction stays deadlocked until a resolution acts).

This module exploits that split:

* :class:`ShardedLockCore` partitions the lock table by a stable hash
  of the resource id into N independent shards — each owns its
  :class:`~repro.lockmgr.lock_table.LockTable`, its re-entrant mutex,
  its mutation epoch and its waiter conditions — with a router in
  front and transaction-side state (aborted set, per-transaction
  shard-affinity map, wait index, shared cost table) at the core.
* The periodic pass is the one
  :class:`~repro.lockmgr.detection_pass.DetectionPass`, bound to the
  shards: epoch-stamped copies of each shard's *waiting* resources
  (taken briefly, in shard order) merged by first-lock sequence, the
  **unchanged** Section-5 machinery run on the copy, the resolutions
  routed back to the owning shards and re-checked there (stale ones
  are skipped and counted, never guessed at).
* :class:`ShardedLockManager` is the blocking, thread-safe facade over
  the core.  With one shard (the default) the pass resolves on the live
  table: no copy, no routing.

Why routing back is sound: every cycle vertex is blocked, so a victim
is a transaction parked in ``acquire`` — marking it aborted and
releasing its entries under the owning shards' mutexes can never yank
locks from under a running thread.  A repositioning that still matches
the head of the live queue is a pure reorder of waiters, which is
exactly what TDR-2 proved safe on the snapshot.

Lock ordering (deadlock freedom of the manager itself): a shard mutex
may be held when the transaction-side lock is taken, never the other
way round; shard mutexes are only ever taken one at a time (the
detector visits shards sequentially); the detector serialization lock
is taken before any shard mutex.

Equivalence with one shard: the Step-2 walk visits resources in the
RST's first-lock order, so the merged snapshot must present resources
in the *global* first-lock order, not shard concatenation order — the
shard tables draw first-lock numbers from one shared counter, a
resource drawing a new one when it re-enters a table (a dict delete +
re-insert, which is what a single table does via ``drop_if_free``).
The merged waiting structure is then the single table's, so a
quiescent pass finds the same cycles, victims and repositionings — the
property the equivalence oracle in :mod:`repro.check.sharded` pins
down.

The shard count is one explicit ``shards=`` argument (default 1).
Continuous detection needs a rooted check on every block — a
whole-graph operation — so it is only supported single-shard: asking
for the continuous policy with ``shards > 1`` raises.
"""

from __future__ import annotations

import contextlib
import threading
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..core.errors import (
    LockTableError,
    TransactionAborted,
    UnknownResourceError,
)
from ..core.hw_twbg import HWTWBG, build_graph
from ..core.modes import LockMode
from ..core.requests import ResourceState
from ..core.victim import CostTable
from .detection_pass import DetectionPass, LiveBinding, PassInfo, WaitingCopy
from .events import Aborted, EventLog, Granted, Repositioned
from .lock_table import FirstLockSequence, LockTable
from .partition import partition_of
from . import scheduler

def resolve_shard_count(shards: int = 1, policy="periodic") -> int:
    """Resolve a ``shards`` argument under ``policy`` (a name or an
    instance): at least one shard, and exactly one for a continuous
    policy, whose rooted at-block check is a whole-graph operation —
    asking for more raises :class:`ValueError`."""
    from ..policy import resolve_policy

    count = max(1, int(shards))
    if count > 1 and resolve_policy(policy).continuous:
        raise ValueError(
            "continuous detection needs a whole-graph rooted check and "
            "runs on one shard; shards={} contradicts it".format(shards)
        )
    return count


def shard_of(rid: str, shards: int) -> int:
    """Stable router: crc32 of the resource id, modulo the shard count
    (the shared :func:`~repro.lockmgr.partition.partition_of`, which
    :func:`~repro.cluster.coordinator.worker_of` delegates to as well)."""
    return partition_of(rid, shards)


def _default_wait(
    condition: threading.Condition, timeout: Optional[float]
) -> bool:
    return condition.wait(timeout=timeout)


class LockShard:
    """One partition: a lock table, its mutex, epoch and waiter conditions.

    The mutex is re-entrant so an injected ``wait_fn`` (the explorer's
    interleaving seam) may call back into the manager while the facade
    already holds the shard.  ``epoch`` counts mutations; the detector
    stamps its snapshots with it to measure drift between snapshot and
    resolution time.
    """

    __slots__ = ("index", "table", "mutex", "epoch", "wakeups")

    def __init__(
        self, index: int, sequence: Optional[Callable[[], int]] = None
    ) -> None:
        self.index = index
        self.table = LockTable(sequence)
        self.mutex = threading.RLock()
        self.epoch = 0
        self.wakeups: Dict[int, threading.Condition] = {}


class MergedTableView:
    """A read-only, LockTable-shaped view across every shard.

    Serves the introspection surface (oracles, admin payloads, the
    structural verifier) when the core has more than one shard; all
    reads collect per-shard state briefly under each shard's mutex and
    present resources in global first-lock order, mirroring the
    iteration order a monolithic table would have.  Mutation goes
    through the core, never through this view.
    """

    def __init__(self, core: "ShardedLockCore") -> None:
        self._core = core

    def _states(self) -> List[ResourceState]:
        rows = []
        for shard in self._core.shards:
            with shard.mutex:
                table = shard.table
                rows.extend(
                    (table.sequence_of(state.rid), state)
                    for state in table.resources()
                )
        rows.sort(key=lambda row: row[0])
        return [state for _, state in rows]

    # -- resource access ------------------------------------------------

    def resources(self) -> Iterator[ResourceState]:
        return iter(self._states())

    def resource_ids(self) -> List[str]:
        return [state.rid for state in self._states()]

    def existing(self, rid: str) -> ResourceState:
        return self._core.shard_for(rid).table.existing(rid)

    def __contains__(self, rid: str) -> bool:
        return rid in self._core.shard_for(rid).table

    def __len__(self) -> int:
        return sum(len(shard.table) for shard in self._core.shards)

    # -- transaction-side indexes ---------------------------------------

    def held_by(self, tid: int) -> Set[str]:
        held: Set[str] = set()
        for shard in self._core.shards:
            held.update(shard.table.held_by(tid))
        return held

    def blocked_at(self, tid: int) -> Optional[str]:
        return self._core.blocked_at(tid)  # the wait index

    def blocked_in_queue(self, tid: int) -> bool:
        for shard in self._core.shards:
            if shard.table.is_blocked(tid):
                return shard.table.blocked_in_queue(tid)
        return False

    def blocked_tids(self) -> List[int]:
        tids: List[int] = []
        for shard in self._core.shards:
            tids.extend(shard.table.blocked_tids())
        return tids

    def blocked_count(self) -> int:
        return sum(
            shard.table.blocked_count() for shard in self._core.shards
        )

    def active_tids(self) -> Set[int]:
        tids: Set[int] = set()
        for shard in self._core.shards:
            tids.update(shard.table.active_tids())
        return tids

    def saturated(self) -> bool:
        blocked = set(self.blocked_tids())
        return bool(blocked) and self.active_tids() == blocked

    # -- presentation ----------------------------------------------------

    def snapshot(self) -> List[ResourceState]:
        return [state.copy() for state in self._states()]

    def __str__(self) -> str:
        return "\n".join(str(state) for state in self._states())


class ShardedLockCore:
    """The strict-2PL lock manager core, partitioned into N shards.

    ``lock`` is the only way to acquire or convert a lock (FIFO except
    for conversions, Section 3); ``finish`` releases *all* of a
    transaction's locks (strict 2PL); ``detect`` is one periodic
    detection-resolution pass (Section 5).  One
    :class:`~repro.policy.base.DetectionPolicy` (``policy=``) decides
    block-time behaviour and pass hooks; every effect is returned as
    events and kept in a bounded :class:`~repro.lockmgr.events.EventLog`.

    Driven by one writer at a time (the service layer, the explorer,
    the mini database); under free threading each operation
    synchronizes on the owning shard only.

    ``listener`` (when used multi-shard) must be thread-safe: events
    from different shards may be published concurrently.
    """

    def __init__(
        self,
        shards: int = 1,
        costs: Optional[CostTable] = None,
        listener: Optional[Callable[[object], None]] = None,
        sequence_source: Optional[Callable[[], int]] = None,
        policy="periodic",
    ) -> None:
        from ..policy import resolve_policy

        resolved = resolve_policy(policy)
        count = resolve_shard_count(shards, resolved)
        # One first-lock counter for every shard table (see the module
        # docstring).  ``sequence_source`` swaps the local counter for
        # an external one — ``LocalCluster``'s worker cores share one so
        # their merged snapshots keep the *cluster-wide* order.
        sequence = FirstLockSequence(sequence_source)
        self.shards: List[LockShard] = [
            LockShard(i, sequence) for i in range(count)
        ]
        self.costs = costs if costs is not None else CostTable()
        #: The detection policy: block-time decisions and pass hooks.
        self.policy = resolved.bind(self)
        self.continuous = self.policy.continuous
        #: Recent events, counted per shard (see :class:`EventLog`).
        self.log = EventLog(count)
        self.listener = listener
        self.last_detection = None
        self._aborted: Set[int] = set()
        #: tid -> bitmask of the shards an accepted request of it went
        #: to: bounds every transaction-side scan.  Empty on a one-shard
        #: core, whose one table knows every transaction.
        self._affinity: Dict[int, int] = {}
        #: tid -> the rid it waits at (Axiom 1: one), set and cleared
        #: under that shard's mutex.  None when one table indexes all.
        self._waits: Optional[Dict[int, str]] = {} if count > 1 else None
        self._txn_lock = threading.Lock()
        self._detect_lock = threading.RLock()

    # -- routing ---------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_index(self, rid: str) -> int:
        """Which shard owns ``rid`` (stable across the core's lifetime)."""
        return shard_of(rid, len(self.shards))

    def shard_for(self, rid: str) -> LockShard:
        shards = self.shards
        if len(shards) == 1:
            return shards[0]
        return shards[partition_of(rid, len(shards))]

    def _mask(self, tid: int) -> int:
        """Bitmask of the shards that can know ``tid`` (call with the
        transaction-side lock held)."""
        if len(self.shards) == 1:
            return int(self.shards[0].table.knows(tid))
        return self._affinity.get(tid, 0)

    def sequence_of(self, rid: str) -> Optional[int]:
        """The first-lock sequence number of ``rid`` (None while it is
        not locked); journaled so replay can re-assert the same order."""
        return self.shard_for(rid).table.sequence_of(rid)

    def restore_sequence(self, rid: str, seq: Optional[int]) -> None:
        """Force ``rid``'s first-lock sequence to the journaled value:
        replay calls :meth:`lock` (a *fresh* number) and overwrites it
        with the recorded one, so the rebuilt iteration order is
        byte-identical to the pre-crash table."""
        shard = self.shard_for(rid)
        with shard.mutex:
            if seq is not None and rid in shard.table:
                shard.table.restore_sequence(rid, int(seq))

    @property
    def table(self):
        """The RST: the real table single-shard, a merged read-only view
        otherwise."""
        if len(self.shards) == 1:
            return self.shards[0].table
        return MergedTableView(self)

    # -- the locking surface ---------------------------------------------

    def lock(self, tid: int, rid: str, mode: LockMode) -> scheduler.RequestOutcome:
        """Request (or convert to) ``mode`` on ``rid`` for ``tid``.  A
        blocked request runs the policy's ``on_block`` hook; a
        resolution it makes is kept in :attr:`last_detection`."""
        if tid < 1:  # 0 and -1 are the detector walk's sentinels
            raise LockTableError("transaction id {} < 1".format(tid))
        shards, count = self.shards, len(self.shards)  # routed inline
        shard = shards[partition_of(rid, count)] if count > 1 else shards[0]
        with shard.mutex:
            touched = bit = 0
            if count > 1:
                bit = 1 << shard.index
                touched = self._affinity.get(tid, 0)  # only its driver writes
            if tid in self._aborted:
                raise LockTableError(
                    "transaction {} was aborted and cannot lock".format(tid)
                )
            if touched & ~bit:  # Axiom 1 across shards (a table sees its own)
                at = self._waits.get(tid)
                if at is not None and self.shard_for(at) is not shard:
                    raise LockTableError(
                        "transaction {} is already blocked at {} and "
                        "cannot also wait at {}".format(tid, at, rid)
                    )
            outcome = scheduler.request(shard.table, tid, rid, mode)
            if bit & ~touched:
                # Only an accepted request leaves anything to route to.
                with self._txn_lock:
                    self._affinity[tid] = touched | bit
            shard.epoch += 1
            log = self.log  # as _publish logs, for the one event
            log.counts[shard.index] += 1
            log.append(outcome)
            if self.listener is not None:
                self.listener(outcome)
            self.last_detection = None
            if not outcome.granted:
                if bit:
                    self._waits[tid] = rid
                self.last_detection = self.policy.on_block(
                    self, tid, rid, mode
                )
                if self.last_detection is not None:
                    self._absorb(shard, self.last_detection)
            return outcome

    def finish(self, tid: int) -> List[Granted]:
        """End ``tid`` (commit or abort): release everything it holds or
        waits for on every shard it touched, strict 2PL."""
        with self._txn_lock:
            mask = self._mask(tid)
            self._affinity.pop(tid, None)
            self._aborted.discard(tid)
        return self._release(tid, mask)

    def _release(self, tid: int, mask: int) -> List[Granted]:
        """Release everything ``tid`` holds or waits for on the shards
        in ``mask``, publishing each shard's grants under its mutex."""
        grants: List[Granted] = []
        waits = self._waits
        for shard in self.shards:
            if not mask >> shard.index & 1:
                continue
            with shard.mutex:
                freed = scheduler.release_all(shard.table, tid)
                shard.epoch += 1
                if waits is not None:
                    waits.pop(tid, None)
                if freed:
                    self._publish(shard, *freed)
                    grants.extend(freed)
                    if waits is not None:
                        for event in freed:
                            waits.pop(event.tid, None)
        self.costs.forget(tid)
        return grants

    # -- deadlock handling ------------------------------------------------

    def detect(self):
        """One detection-resolution pass, as the policy runs it — by
        default :meth:`detection_pass` over every shard."""
        return self.policy.detect(self)

    def detection_pass(self, incidents=None, stamp=None) -> DetectionPass:
        """The pass :meth:`detect` runs, for a host that also wants its
        forensics (``incidents`` / ``stamp``: see
        :class:`~repro.lockmgr.detection_pass.DetectionPass`)."""
        if len(self.shards) == 1:
            # Single shard: the pass resolves on the real table, so it
            # runs under that table's mutex — the whole-pass stall the
            # multi-shard protocol exists to avoid.
            binding = LiveBinding(
                self.shards[0].table, self._absorb_live, self._live_guard
            )
        else:
            binding = _ShardBinding(self)
        return DetectionPass(
            binding, self.costs, self.policy, incidents, stamp
        )

    @contextlib.contextmanager
    def _live_guard(self):
        with self._detect_lock, self.shards[0].mutex:
            yield

    def _absorb_live(self, result) -> None:
        if result.deadlock_found:
            self.shards[0].epoch += 1
        self._absorb(self.shards[0], result)

    # -- resolution primitives (shared with the routed pass) --------------

    def _waiting(self, convert):
        """Snapshot the waiting structure: ``convert(state)`` of every
        resource somebody is blocked at — each shard locked briefly, in
        shard order — as ``(first-lock number, shard, converted)`` rows
        by number, the shard epochs and the seconds each mutex was held."""
        rows, epochs, seconds = [], [], []
        for shard in self.shards:
            started = perf_counter()
            with shard.mutex:
                seq = shard.table.sequence_of
                for state in shard.table.waiting_resources():
                    rows.append((seq(state.rid), shard.index, convert(state)))
                epochs.append(shard.epoch)
            seconds.append(perf_counter() - started)
        rows.sort(key=itemgetter(0))
        return rows, epochs, seconds

    def snapshot_payload(self) -> Dict[str, object]:
        """Serialize this core's slice of the waiting structure for the
        routed pass (:mod:`repro.cluster.coordinator`): the rows of the
        resources somebody is blocked at, in first-lock order with their
        sequence numbers (the coordinator merges several cores' slices
        by them — the cores share a counter via ``sequence_source``).  Idle locks are never
        shipped, so the payload is proportional to the blocked requests.
        """
        from ..core.serialize import FORMAT_VERSION, state_to_dict

        started = perf_counter()
        rows, epochs, _ = self._waiting(state_to_dict)
        return {
            "v": FORMAT_VERSION,
            "table": {
                "v": FORMAT_VERSION,
                "resources": [entry for _, _, entry in rows],
            },
            "sequence": {entry["rid"]: seq for seq, _, entry in rows},
            "epochs": epochs,
            "seconds": perf_counter() - started,
        }

    def abort_victim(
        self, tid: int, expected_rid: Optional[str]
    ) -> Optional[List[Granted]]:
        """Confirm-and-abort one deadlock victim chosen from a snapshot.

        The staleness re-check of the periodic protocol: ``tid`` must
        still be blocked at ``expected_rid`` (where the snapshot saw
        it) or the victim is stale and left untouched — ``None``.  When
        confirmed, marks the transaction aborted, frees everything it
        holds or waits for on this core and returns the grants.
        """
        if expected_rid is None:
            return None
        shard = self.shard_for(expected_rid)
        with shard.mutex:
            if shard.table.blocked_at(tid) != expected_rid:
                return None
            with self._txn_lock:
                if tid in self._aborted:
                    return None
                self._aborted.add(tid)
                mask = self._mask(tid)
            self._publish(shard, Aborted(tid, "deadlock victim"))
        # The affinity stays: the owner's eventual ``finish`` still routes.
        return self._release(tid, mask)

    def release_victim(self, tid: int) -> List[Granted]:
        """Free a victim's entries on this core without re-confirming.

        The routed pass's counterpart of the victim-release loop: when a
        victim blocks on *another* worker core, that core confirms via
        :meth:`abort_victim` and every other core holding the victim's
        locks frees them through here.  The coordinator does
        not know where a victim's idle locks live (snapshots carry the
        waiting structure only), so it asks every other core.
        """
        with self._txn_lock:
            mask = self._mask(tid)
            if not mask:
                # Never seen here: nothing to free, nothing to remember
                # (no ``finish`` would ever clear the mark).
                return []
            self._aborted.add(tid)
        return self._release(tid, mask)

    def apply_reposition(self, rid: str, av, st) -> Optional[Repositioned]:
        """Re-validate and apply one staged TDR-2 repositioning against
        the live queue of ``rid``.  Returns the event, or None when the
        live queue moved on since the snapshot (the stale case)."""
        shard = self.shard_for(rid)
        with shard.mutex:
            try:
                scheduler.reposition_queue(
                    shard.table, rid, list(av), list(st)
                )
            except (LockTableError, UnknownResourceError):
                return None
            shard.epoch += 1
            event = Repositioned(rid=rid, delayed=tuple(st))
            self._publish(shard, event)
        return event

    def sweep_resource(self, rid: str) -> List[Granted]:
        """Run the change-list sweep over one repositioned resource."""
        shard = self.shard_for(rid)
        with shard.mutex:
            if rid not in shard.table:
                return []
            events = scheduler.sweep(shard.table, rid)
            if events:
                shard.epoch += 1
                self._publish(shard, *events)
                if self._waits is not None:
                    for event in events:
                        self._waits.pop(event.tid, None)
        return events

    def _absorb(self, shard: LockShard, result) -> None:
        reason = getattr(result, "abort_reason", "deadlock victim")
        with self._txn_lock:
            self._aborted.update(result.aborted)
        if self._waits is not None:  # a block-time abort ended its wait
            for tid in result.aborted + [e.tid for e in result.grants]:
                self._waits.pop(tid, None)
        self._publish(
            shard,
            *[Aborted(tid, reason) for tid in result.aborted],
            *result.repositions,
            *result.grants,
        )

    def _publish(self, shard: LockShard, *events) -> None:
        """Log ``events``, counted under ``shard``'s mutex (held)."""
        log, listener = self.log, self.listener
        log.counts[shard.index] += len(events)
        for event in events:
            log.append(event)
            if listener is not None:
                listener(event)

    # -- introspection ----------------------------------------------------

    def graph(self) -> HWTWBG:
        """The current global H/W-TWBG, built from a merged snapshot."""
        return build_graph(self.table.snapshot())

    def blocked_at(self, tid: int) -> Optional[str]:
        if len(self.shards) == 1:
            return self.shards[0].table.blocked_at(tid)
        return self._waits.get(tid)

    def is_blocked(self, tid: int) -> bool:
        return self.blocked_at(tid) is not None

    def was_aborted(self, tid: int) -> bool:
        return tid in self._aborted

    def holding(self, tid: int) -> Dict[str, LockMode]:
        with self._txn_lock:
            mask = self._mask(tid)
        held: Dict[str, LockMode] = {}
        for shard in self.shards:
            if not mask >> shard.index & 1:
                continue
            with shard.mutex:
                for rid in shard.table.held_by(tid):
                    entry = shard.table.existing(rid).holder_entry(tid)
                    if entry is not None:
                        held[rid] = entry.granted
        return held

    def deadlocked(self) -> bool:
        return self.graph().has_cycle()

    def saturated(self) -> bool:
        """:meth:`LockTable.saturated` across shards: somebody waits and
        every shard's holders wait (exact while one writer drives it)."""
        waits = self._waits
        if waits is None:
            return self.table.saturated()
        return bool(waits) and all(
            shard.table.holders_among(waits.keys()) for shard in self.shards
        )

    def shard_summaries(self) -> List[Dict[str, int]]:
        """Per-shard load figures for admin payloads and metrics."""
        rows = []
        for shard in self.shards:
            with shard.mutex:
                rows.append({
                    "shard": shard.index,
                    "resources": len(shard.table),
                    "blocked": shard.table.blocked_count(),
                    "queued": sum(
                        len(state.queue)
                        for state in shard.table.resources()
                    ),
                    "epoch": shard.epoch,
                })
        return rows

    def __str__(self) -> str:
        return str(self.table)


class _ShardBinding:
    """The pass's two ends over live shards: copies of every shard's
    waiting resources in, staged resolutions back out under the owning
    shard's mutex (each publishing its events as it lands)."""

    def __init__(self, core: ShardedLockCore) -> None:
        self.core = core
        self._parts: Dict[str, int] = {}  # collected rid -> its shard
        self.part_of = self._parts.__getitem__
        self.abort = core.abort_victim
        self.sweep = core.sweep_resource
        self.info = PassInfo(parts=len(core.shards))
        self._epochs: List[int] = []

    def guard(self):
        return self.core._detect_lock

    def collect(self):
        rows, self._epochs, self.info.snapshot_seconds = (
            self.core._waiting(ResourceState.copy)
        )
        merged, parts = WaitingCopy(), self._parts
        for _, index, state in rows:
            merged[state.rid] = state
            parts[state.rid] = index
        return merged, False

    def reposition(self, chosen) -> List[Optional[Repositioned]]:
        # Routing starts here (the pass always calls this first): note
        # which shards moved on while Steps 1-3 ran on the copies.
        self.info.epoch_drift = sum(
            shard.epoch != stamped
            for shard, stamped in zip(self.core.shards, self._epochs)
        )
        return [
            self.core.apply_reposition(item.rid, item.av, item.st)
            for item in chosen
        ]

    def finish(self, result) -> None:
        result.routing = self.info


class ShardedLockManager:
    """Blocking, thread-safe front end over :class:`ShardedLockCore`.

    ``acquire`` parks the calling thread on the owning shard's condition
    until grant, timeout or victimization (:class:`TransactionAborted`);
    ``commit``/``abort`` release everything (strict 2PL); with a
    ``period``, a daemon thread runs :meth:`detect` that often.  Threads
    on resources of different shards never contend on a mutex.

    ``wait_fn(condition, timeout)``, the single interleaving point, is
    called with the owning shard's mutex held and must behave like
    :meth:`threading.Condition.wait` (the default); the schedule
    explorer (:mod:`repro.check`) injects a controlled wait to pin down
    wakeup/timeout races that wall-clock tests cannot reproduce.
    """

    def __init__(
        self,
        shards: int = 1,
        costs: Optional[CostTable] = None,
        period: Optional[float] = None,
        wait_fn: Optional[
            Callable[[threading.Condition, Optional[float]], bool]
        ] = None,
        listener: Optional[Callable[[object], None]] = None,
        policy="periodic",
    ) -> None:
        self._core = ShardedLockCore(
            shards=shards,
            costs=costs,
            listener=listener,
            policy=policy,
        )
        self._wait_fn = wait_fn if wait_fn is not None else _default_wait
        #: tid -> the shard whose condition the transaction waits on.
        self._wait_shard: Dict[int, LockShard] = {}
        self._stop = threading.Event()
        self._detector_thread: Optional[threading.Thread] = None
        # A deadlock-free policy (the nowait lane) has nothing for a
        # periodic daemon to find; don't spin one up.
        if period is not None and self._core.policy.wants_periodic:
            self._detector_thread = threading.Thread(
                target=self._detector_loop,
                args=(period,),
                name="repro-deadlock-detector",
                daemon=True,
            )
            self._detector_thread.start()

    @property
    def shard_count(self) -> int:
        return self._core.shard_count

    # -- locking -----------------------------------------------------------

    def acquire(
        self,
        tid: int,
        rid: str,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> bool:
        """Acquire (or convert to) ``mode`` on ``rid``, blocking the
        calling thread until granted.  Returns False only on timeout
        (the request stays queued); raises :class:`TransactionAborted`
        when a detection pass victimized the caller."""
        core = self._core
        shard = core.shard_for(rid)
        with shard.mutex:
            if core.was_aborted(tid):
                raise TransactionAborted(tid)
            if not core.is_blocked(tid):
                outcome = core.lock(tid, rid, mode)
                if outcome.granted:
                    return True
                if core.last_detection is not None:
                    self._service(core.last_detection)
                    if core.was_aborted(tid):
                        raise TransactionAborted(tid)
                    if not core.is_blocked(tid):
                        return True
            condition = shard.wakeups.setdefault(
                tid, threading.Condition(shard.mutex)
            )
            self._wait_shard[tid] = shard
            while True:
                woken = self._wait_fn(condition, timeout)
                # State first, wait result second: a wake-up racing the
                # timeout must never report a timeout after the grant
                # nor swallow an abort.
                if core.was_aborted(tid):
                    raise TransactionAborted(tid)
                if not core.is_blocked(tid):
                    return True
                if not woken:
                    return False  # timed out; request still queued

    def commit(self, tid: int) -> None:
        """Release everything ``tid`` holds and wake the grantees."""
        grants = self._core.finish(tid)
        shard = self._wait_shard.pop(tid, None)
        if shard is not None:
            with shard.mutex:
                shard.wakeups.pop(tid, None)
        self._notify(event.tid for event in grants)

    def abort(self, tid: int) -> None:
        """Abort ``tid``: identical release path (strict 2PL)."""
        self.commit(tid)

    # -- detection ---------------------------------------------------------

    def detect(self):
        """Run one cross-shard periodic pass now (also what the daemon
        thread runs every ``period`` seconds)."""
        result = self._core.detect()
        self._service(result)
        return result

    def _detector_loop(self, period: float) -> None:
        # The policy may retune the interval between passes (the
        # adaptive controller); consult it every iteration.
        while True:
            interval = self._core.policy.current_period(period)
            if interval is None:
                interval = period
            if self._stop.wait(interval):
                return
            self.detect()

    def _service(self, result) -> None:
        """Wake victims (to observe their abort) and grantees."""
        self._notify(result.aborted)
        self._notify(event.tid for event in result.grants)

    def _notify(self, tids) -> None:
        for tid in tids:
            shard = self._wait_shard.get(tid)
            if shard is None:
                continue
            condition = shard.wakeups.get(tid)
            if condition is not None:
                with shard.mutex:
                    condition.notify_all()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the background detector thread (if any)."""
        self._stop.set()
        if self._detector_thread is not None:
            self._detector_thread.join(timeout=5.0)

    def __enter__(self) -> "ShardedLockManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def holding(self, tid: int) -> Dict[str, LockMode]:
        return self._core.holding(tid)

    def deadlocked(self) -> bool:
        return self._core.deadlocked()

    def shard_summaries(self) -> List[Dict[str, int]]:
        return self._core.shard_summaries()

    def snapshot(self) -> List[str]:
        """Render the merged table (debugging)."""
        return str(self._core).splitlines()
