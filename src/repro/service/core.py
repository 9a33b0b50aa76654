"""The synchronous heart of the lock service.

:class:`ServiceCore` is everything the network server does *between*
sockets: sessions and leases, transaction ownership, parked ``lock``
waits and the pump that resolves them, the periodic detection step and
the service counters.  It is a plain, single-threaded state machine —
the asyncio :class:`~repro.service.server.LockServer` drives it inline
from its event-loop callbacks, and the deterministic schedule explorer
(:mod:`repro.check`) drives the very same code directly, one step at a
time, under a virtual clock.

Two injection points make the core controllable:

* ``clock`` — a zero-argument callable returning the current time.
  The server installs its event loop's clock; :mod:`repro.check`
  installs a virtual clock so lease expiry becomes a schedulable
  transition instead of a wall-time race.
* :class:`ParkedWait` — a blocking ``lock`` that cannot be answered
  immediately is parked as a core object, not an asyncio future.  The
  server attaches a callback that completes the network future;
  the explorer leaves the resolution sitting in :attr:`ParkedWait.status`
  and delivers it as an explicit (reorderable, droppable) event.

The caller contract is the server's single-writer rule: all methods
must be invoked from one logical thread of control.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import LockTableError, ReproError
from ..core.modes import MODE_NAMES, LockMode
from ..lockmgr.sharded import ShardedLockCore
from ..obs.incidents import IncidentLog
from ..obs.instrument import Telemetry
from ..policy import resolve_policy
from .admin import ServiceStats
from .journal import BATCH_FIELDS
from .protocol import (
    MAX_BATCH_OPS,
    ServiceError,
    event_to_dict,
    int_field,
    mode_field,
    rid_field,
)

#: Bounds on a client-requested lease, seconds.
MIN_LEASE = 0.05
MAX_LEASE = 3600.0


def _batch_error(op, code: str, message: str) -> dict:
    """One failed sub-op's in-place result within a batch response."""
    return {
        "op": op,
        "ok": False,
        "error": {"code": code, "message": message},
    }


class Session:
    """One connection's service state: identity, owned transactions and
    the lease that keeps them alive."""

    def __init__(self, sid: str, lease: float, now: float) -> None:
        self.sid = sid
        self.lease = lease
        self.deadline = now + lease
        self.tids: Set[int] = set()
        self.detached = False  # said goodbye
        self.closed = False
        #: Opaque handle with a ``close()`` method (the server stores its
        #: connection object; tests store fakes; may stay None).
        self.transport = None
        #: Resume credential, handed out at open and demanded by the
        #: ``resume`` op after a server restart.
        self.token: Optional[str] = None
        #: Lease deadline on the *wall* clock — the journaled form.  The
        #: monotonic ``deadline`` dies with the process; this one is
        #: what a restarted server judges survival against.
        self.wall_deadline = self.deadline
        #: The expiry last made durable; renews are only journaled when
        #: the lease has drifted past half its length (throttling).
        self.journaled_expiry = self.deadline

    def touch(self, now: float) -> None:
        """Renew the lease (any received frame counts as a heartbeat)."""
        self.deadline = now + self.lease

    def expired(self, now: float) -> bool:
        return now > self.deadline


class ParkedWait:
    """A blocking ``lock`` request waiting for a grant or an abort.

    ``status`` stays None until the pump resolves the wait with
    ``"granted"`` or ``"aborted"``; an attached callback (if any) fires
    exactly once at that moment.
    """

    __slots__ = ("tid", "status", "callback")

    def __init__(
        self, tid: int, callback: Optional[Callable[[str], None]] = None
    ) -> None:
        self.tid = tid
        self.status: Optional[str] = None
        self.callback = callback

    def resolve(self, status: str) -> None:
        if self.status is not None:
            return
        self.status = status
        if self.callback is not None:
            self.callback(status)


class ServiceCore:
    """Sessions, leases, ownership and parked waits over a
    :class:`ShardedLockCore` (see module docstring)."""

    def __init__(
        self,
        lease: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Optional[Telemetry] = None,
        shards: int = 1,
        journal=None,
        wall: Callable[[], float] = time.time,
        token_source: Optional[Callable[[], str]] = None,
        incident_log: Optional[IncidentLog] = None,
        policy="periodic",
    ) -> None:
        #: The detection policy driving this service's manager.
        self.policy = resolve_policy(policy)
        self.continuous = self.policy.continuous
        self.lease = lease
        self.clock = clock
        #: Wall clock for journaled lease deadlines (the monotonic
        #: ``clock`` is meaningless across a restart); the explorer
        #: installs its virtual clock for both.
        self.wall = wall
        #: Optional :class:`~repro.service.journal.SessionJournal`; None
        #: keeps the service purely in-memory (every ``_journal_append``
        #: becomes a no-op).
        self.journal = journal
        self._token_source = token_source
        #: Incident forensics sink: every deadlock-resolving pass
        #: appends a ``repro.incident/1`` record here.  Defaults to a
        #: small in-memory ring so the explorer's incident oracle works
        #: unconfigured; the server injects an on-disk log.
        self.incidents = (
            incident_log
            if incident_log is not None
            else IncidentLog(capacity=64)
        )
        #: Restart generation stamped onto incident records; the server
        #: bumps it after journal recovery so forensics can tell which
        #: process lifetime a deadlock belongs to.
        self.restart_epoch = 0
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(clock=clock)
        )
        self.manager = ShardedLockCore(
            shards=shards,
            # A telemetry built disabled is never fed lock events.
            listener=self.telemetry.record if self.telemetry.enabled else None,
            policy=self.policy,
        )
        #: Resolved shard count (a continuous policy refuses more than 1).
        self.shards = self.manager.shard_count
        self.stats = ServiceStats(registry=self.telemetry.registry)
        self.sessions: Dict[str, Session] = {}
        self.owners: Dict[int, Session] = {}
        self.waiters: Dict[int, ParkedWait] = {}
        self._next_sid = 1
        self._next_tid = 1
        #: Sub-ops the batch frame being applied has journaled so far.
        self._frame_ops: Optional[List[tuple]] = None
        registry = self.telemetry.registry
        registry.gauge(
            "repro_sessions_open",
            help="open service sessions",
            fn=lambda: float(len(self.sessions)),
        )
        registry.gauge(
            "repro_transactions_active",
            help="transactions owned by a session",
            fn=lambda: float(len(self.owners)),
        )
        registry.gauge(
            "repro_parked_waiters",
            help="lock requests parked awaiting grant or abort",
            fn=lambda: float(len(self.waiters)),
        )
        registry.gauge(
            "repro_resources_locked",
            help="resources present in the lock table",
            fn=lambda: float(len(self.manager.table)),
        )
        registry.gauge(
            "repro_blocked_transactions",
            help="transactions currently blocked in the lock table",
            fn=lambda: float(self.manager.table.blocked_count()),
        )
        registry.gauge(
            "repro_lock_shards",
            help="shards the lock table is partitioned into",
            fn=lambda: float(self.manager.shard_count),
        )
        registry.gauge(
            "repro_detection_policy",
            labels={"policy": self.policy.name},
            help="active detection policy (constant 1, policy label)",
            fn=lambda: 1.0,
        )
        self._policy_abort_counter = registry.counter(
            "repro_policy_aborts_total",
            labels={"policy": self.policy.name},
            help="transactions aborted by a block-time policy decision "
            "(the nowait lane), not by a detector pass",
        )
        for shard in self.manager.shards:
            registry.gauge(
                "repro_shard_resources",
                labels={"shard": str(shard.index)},
                help="resources present in this shard's lock table",
                fn=lambda s=shard: float(len(s.table)),
            )
            registry.gauge(
                "repro_shard_blocked",
                labels={"shard": str(shard.index)},
                help="transactions blocked in this shard",
                fn=lambda s=shard: float(s.table.blocked_count()),
            )

    # -- journaling --------------------------------------------------------

    def _journal_append(self, kind: str, **fields) -> None:
        """Append one durability record (no-op without a journal).

        Called *after* the mutation it describes succeeded, so the
        journal never records an operation the table rejected; the
        server flushes once per loop turn, before that turn's replies
        are written (group commit)."""
        if self.journal is not None:
            self.journal.append(kind, **fields)
            self.stats.journal_records += 1

    def _journal_op(self, session: Session, kind: str, *values) -> None:
        """Journal one sub-op (``values`` in ``BATCH_FIELDS[kind]``
        order): a record of its own, or — inside :meth:`batch_step` —
        one entry of the frame's single ``batch`` record."""
        if self._frame_ops is not None:
            self._frame_ops.append((kind,) + values)
        elif self.journal is not None:
            self._journal_append(
                kind, sid=session.sid, **dict(zip(BATCH_FIELDS[kind], values))
            )

    def _new_token(self) -> str:
        if self._token_source is not None:
            return str(self._token_source())
        return os.urandom(8).hex()

    # -- sessions ----------------------------------------------------------

    def open_session(
        self, lease: Optional[float] = None, transport=None
    ) -> Session:
        lease = self.lease if lease is None else float(lease)
        lease = min(max(lease, MIN_LEASE), MAX_LEASE)
        session = Session("S{}".format(self._next_sid), lease, self.clock())
        self._next_sid += 1
        session.transport = transport
        session.token = self._new_token()
        session.wall_deadline = self.wall() + lease
        session.journaled_expiry = session.wall_deadline
        self.sessions[session.sid] = session
        self.stats.sessions_opened += 1
        self._journal_append(
            "open",
            sid=session.sid,
            token=session.token,
            lease=lease,
            expires=session.wall_deadline,
        )
        return session

    def touch_session(self, session: Session) -> None:
        """Renew a session's lease on both clocks; journals a ``renew``
        only once the durable expiry lags by more than half a lease, so
        heartbeats cost one record per half-lease, not one per frame."""
        session.touch(self.clock())
        session.wall_deadline = self.wall() + session.lease
        if session.wall_deadline - session.journaled_expiry > session.lease / 2:
            self._journal_append(
                "renew", sid=session.sid, expires=session.wall_deadline
            )
            session.journaled_expiry = session.wall_deadline

    def resume_session(self, sid, token, transport=None) -> Session:
        """Re-attach a client to a lease that survived a restart (the
        ``resume`` op).  The token is the credential: a wrong or missing
        one is rejected without leaking whether the session exists."""
        session = self.sessions.get(str(sid))
        if session is None or session.closed:
            raise ServiceError(
                "unknown-session",
                "session {} is not resumable".format(sid),
            )
        if not token or session.token != str(token):
            raise ServiceError(
                "bad-token",
                "resume token does not match session {}".format(sid),
            )
        if session.transport is not None and not session.detached:
            raise ServiceError(
                "session-busy",
                "session {} is attached to a live connection".format(sid),
            )
        session.transport = transport
        session.detached = False
        self.stats.sessions_resumed += 1
        self.touch_session(session)
        return session

    def close_session(self, session: Session) -> None:
        """Tear one session down: abort its transactions (freeing their
        locks and waking grantees), drop ownership, close the transport.

        Runs to completion without yielding, so it cannot interleave
        with another core operation and stays safe to call from server
        shutdown paths.
        """
        if session.closed:
            return
        session.closed = True
        self.sessions.pop(session.sid, None)
        self.stats.sessions_closed += 1
        self._journal_append("close", sid=session.sid)
        tids = sorted(session.tids)
        if tids:
            self.stats.aborts += len(tids)
            self._sweep_session(session, tids)
            self.pump()
        if session.transport is not None:
            session.transport.close()

    def _sweep_session(self, session: Session, tids) -> None:
        for tid in tids:
            parked = self.waiters.pop(tid, None)
            if parked is not None:
                parked.resolve("aborted")
            self.telemetry.finish(tid, aborted=True)
            try:
                self.manager.finish(tid)
            except ReproError:  # pragma: no cover - defensive
                pass
            self.owners.pop(tid, None)
        session.tids.clear()

    def expire_sessions(self, now: Optional[float] = None) -> List[Session]:
        """Close every session whose lease deadline has passed; returns
        the sessions that were reaped."""
        now = self.clock() if now is None else now
        expired = [
            session
            for session in list(self.sessions.values())
            if not session.closed and session.expired(now)
        ]
        for session in expired:
            self.stats.lease_expiries += 1
            self.close_session(session)
        return expired

    def next_deadline(self) -> Optional[float]:
        """The earliest open-session lease deadline (None when idle)."""
        deadlines = [
            session.deadline
            for session in self.sessions.values()
            if not session.closed
        ]
        return min(deadlines) if deadlines else None

    # -- ownership ------------------------------------------------------------

    def claim(self, tid: int, session: Session) -> None:
        owner = self.owners.get(tid)
        if owner is None:
            if tid < 1:  # 0 and -1 are the detector walk's sentinels
                raise ServiceError("bad-request", "tid must be >= 1")
            self.owners[tid] = session
            session.tids.add(tid)
        elif owner is not session:
            raise ServiceError(
                "not-owner",
                "transaction {} belongs to session {}".format(
                    tid, owner.sid
                ),
            )

    def release_claim(self, tid: int) -> None:
        owner = self.owners.pop(tid, None)
        if owner is not None:
            owner.tids.discard(tid)

    # -- operation steps -------------------------------------------------------

    def begin_step(self, session: Session, tid: Optional[int] = None) -> int:
        if tid is None:
            while (
                self._next_tid in self.owners
                or self.manager.was_aborted(self._next_tid)
            ):
                self._next_tid += 1
            tid = self._next_tid
            self._next_tid += 1
        fresh = tid not in self.owners
        self.claim(tid, session)
        if fresh:
            self._journal_op(session, "begin", tid)
        return tid

    def lock_step(
        self,
        session: Session,
        tid: int,
        rid: str,
        mode: LockMode,
        wait: bool = True,
        callback: Optional[Callable[[str], None]] = None,
    ) -> Tuple[str, Optional[dict], Optional[ParkedWait]]:
        """One ``lock`` operation against the manager.

        Returns ``(status, event, parked)`` where status is one of
        ``granted``/``aborted``/``blocked``/``parked``.  With
        ``wait=True`` a blocking request is parked (the returned
        :class:`ParkedWait` resolves via :meth:`pump`); parking inside
        the step means no grant can slip between the check and the
        registration.
        """
        if self.owners.get(tid) is not session:
            self.claim(tid, session)
        manager = self.manager
        started = time.perf_counter()
        try:
            # The manager refuses an aborted or an already blocked
            # transaction itself: asking first would ask twice.
            outcome = manager.lock(tid, rid, mode)
        except LockTableError:
            self.telemetry.refused()
            if manager.was_aborted(tid):
                return "aborted", None, None
            if not manager.is_blocked(tid):
                raise
            # A re-sent frame resuming an earlier blocked request (the
            # post-timeout path).
            self.telemetry.resume(tid, rid, mode)
            event = None
        else:
            if self.journal is not None:  # the fields cost a routed read
                self._journal_op(
                    session, "lock", tid, rid, MODE_NAMES[mode],
                    manager.sequence_of(rid),
                )
            event = event_to_dict(outcome)
            if outcome.granted:
                self.stats.grants += 1
                return "granted", event, None
            self.stats.blocks += 1
            detection = manager.last_detection
            if detection is not None:
                if self.policy.deadlock_free:
                    # A block-time refusal (the nowait lane): no detector
                    # ran, so count the victims without charging a pass.
                    self.stats.victims_aborted += len(detection.aborted)
                    self._policy_abort_counter.inc(len(detection.aborted))
                else:
                    # A rooted pass ran inside manager.lock (continuous,
                    # or adaptive in its continuous mode); its duration
                    # is the whole call (the pass dominates it).
                    self._count_pass(
                        detection, time.perf_counter() - started
                    )
            if manager.was_aborted(tid):
                return "aborted", event, None
            if not manager.is_blocked(tid):
                # Continuous resolution granted us on the spot.
                self.stats.grants += 1
                return "granted", event, None
        # Blocked (or resuming an earlier blocked request).
        if wait:
            if tid in self.waiters:
                raise ServiceError(
                    "already-waiting",
                    "transaction {} already has a parked "
                    "request".format(tid),
                )
            parked = ParkedWait(tid, callback)
            self.waiters[tid] = parked
            return "parked", event, parked
        return "blocked", event, None

    def cancel_wait(self, tid: int, parked: ParkedWait) -> str:
        """Give up on a parked wait (client-side timeout).

        The request stays queued in the lock table, so a retried
        ``lock`` resumes the same position.  If the wait was resolved in
        the race window before the cancellation ran, the
        resolution wins: its status is returned instead of ``timeout``.
        """
        if parked.status is not None:
            return parked.status
        if self.waiters.get(tid) is parked:
            del self.waiters[tid]
        self.stats.wait_timeouts += 1
        self.telemetry.wait_timeout(tid)
        return "timeout"

    def finish_step(
        self, session: Session, tid: int, aborting: bool
    ) -> List[dict]:
        if self.owners.get(tid) is not session:
            self.claim(tid, session)
        parked = self.waiters.pop(tid, None)
        if parked is not None:
            # The transaction ends while its own lock request is still
            # parked: that request dies with it.  Left to the pump it
            # would read "not aborted, not blocked" and answer granted.
            parked.resolve("aborted")
        self.telemetry.finish(tid, aborted=aborting)
        grants = self.manager.finish(tid)
        self._journal_op(session, "finish", tid, aborting)
        self.release_claim(tid)
        if aborting:
            self.stats.aborts += 1
        else:
            self.stats.commits += 1
        return [event_to_dict(event) for event in grants]

    def batch_step(self, session: Session, ops) -> List[dict]:
        """Apply a pipelined batch of sub-operations back-to-back.

        ``ops`` is the wire frame's list of sub-op dicts
        (``begin``/``lock``/``commit``/``abort``).  The whole batch runs
        inside one core step: no pump, detection pass or competing
        request interleaves between its sub-ops, and the parked-wait
        pump runs once after the batch — the per-frame analogue of a
        single shard pass.

        ``lock`` sub-ops never wait (a blocking request would stall the
        server for every other client): a request that cannot be granted
        immediately answers ``"blocked"`` and stays queued, exactly like
        ``wait=False``, so the client can fall back to an individual
        waiting ``lock``.

        Returns one result dict per sub-op, in order.  A failed sub-op
        reports its error in place and the batch continues — partial
        results mirror what the same ops issued sequentially would have
        produced.
        """
        if not isinstance(ops, list) or not ops:
            raise ServiceError(
                "bad-request", "batch needs a non-empty list of ops"
            )
        if len(ops) > MAX_BATCH_OPS:
            raise ServiceError(
                "batch-too-large",
                "batch of {} ops exceeds the {} op limit".format(
                    len(ops), MAX_BATCH_OPS
                ),
            )
        self.stats.batches += 1
        self.stats.batched_ops += len(ops)
        self.telemetry.batch(len(ops))
        # The frame is the journal's unit: the sub-ops that mutate
        # collect here and leave as ONE record.
        self._frame_ops = mutated = [] if self.journal is not None else None
        try:
            return [self._batch_one(session, frame) for frame in ops]
        finally:
            self._frame_ops = None
            if mutated:
                self._journal_append("batch", sid=session.sid, ops=mutated)

    def _batch_one(self, session: Session, frame) -> dict:
        name = frame.get("op") if isinstance(frame, dict) else None
        try:
            if not isinstance(frame, dict):
                raise ServiceError(
                    "bad-request", "batch sub-op must be an object"
                )
            if name == "begin":
                tid = self.begin_step(
                    session, int_field(frame, "tid", None)
                )
                return {"op": name, "ok": True, "tid": tid}
            if name == "lock":
                tid = int_field(frame, "tid")
                rid, mode = rid_field(frame), mode_field(frame)
                status, event, _ = self.lock_step(
                    session, tid, rid, mode, wait=False
                )
                return {
                    "op": name,
                    "ok": True,
                    "tid": tid,
                    "status": status,
                    "event": event,
                }
            if name in ("commit", "abort"):
                tid = int_field(frame, "tid")
                grants = self.finish_step(
                    session, tid, aborting=name == "abort"
                )
                return {"op": name, "ok": True, "tid": tid, "grants": grants}
            raise ServiceError(
                "bad-op",
                "operation {!r} cannot be batched".format(name),
            )
        except ServiceError as exc:
            return _batch_error(name, exc.code, exc.message)
        except ReproError as exc:
            return _batch_error(name, "error", str(exc))

    def detect_step(self):
        """One periodic detection-resolution pass plus stats.

        When the pass resolves a deadlock, a ``repro.incident/1``
        forensics record lands in :attr:`incidents` — the pass renders
        the waiting structure and the blocking edges *before* Steps
        1-3, since resolution mutates them.
        """
        run = self.manager.detection_pass(self.incidents, self._stamp)
        started = time.perf_counter()
        result = run.run()
        self._count_pass(result, time.perf_counter() - started)
        if result.deadlock_found:
            # A clean pass leaves the table untouched: journaling only
            # the resolving passes keeps replay byte-identical without
            # one record per detector tick.
            self._journal_append("detect")
        run.record()
        return result

    def _count_pass(self, result, duration: float) -> None:
        """Count one detection pass, run on the clock, at once or at
        block time: its outcome in :attr:`stats`, its shape in the
        telemetry."""
        self.stats.absorb_detection(result)
        self.telemetry.detection(result, duration)

    def _stamp(self) -> dict:
        """This service's fields of an incident record."""
        return {
            "source": "service",
            "epoch": self.restart_epoch,
            "timestamp": self.wall(),
            "span": self.telemetry.pass_span("deadlock"),
        }

    def pump(self) -> List[ParkedWait]:
        """Resolve parked ``lock`` waits against the manager's current
        state; returns the waits resolved by this call.  The server runs
        this after every core operation, and it folds the telemetry the
        step recorded."""
        if self.telemetry.stream:
            self.telemetry.fold()
        resolved: List[ParkedWait] = []
        for tid, parked in list(self.waiters.items()):
            if parked.status is not None:
                del self.waiters[tid]
            elif self.manager.was_aborted(tid):
                del self.waiters[tid]
                parked.resolve("aborted")
                resolved.append(parked)
            elif not self.manager.is_blocked(tid):
                del self.waiters[tid]
                parked.resolve("granted")
                self.stats.grants += 1
                resolved.append(parked)
        return resolved

    # -- introspection ---------------------------------------------------------

    def stats_payload(self) -> Dict[str, int]:
        payload = self.stats.as_dict()
        payload["sessions"] = len(self.sessions)
        payload["transactions"] = len(self.owners)
        payload["resources"] = len(self.manager.table)
        payload["parked_waiters"] = len(self.waiters)
        payload["shards"] = self.manager.shard_count
        payload["policy"] = self.policy.name
        payload["policy_info"] = self.policy.describe()
        return payload
