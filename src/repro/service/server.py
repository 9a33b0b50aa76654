"""The asyncio lock server: the lock core as a network service.

Architecture
------------

* **Synchronous core.**  Everything the service *is* — sessions and
  leases, transaction ownership, parked waits and their pump, the
  detection step, the counters — lives in the synchronous
  :class:`~repro.service.core.ServiceCore`.  This module is the network
  shell around it: sockets, frames, timers.  The split is what lets the
  deterministic schedule explorer (:mod:`repro.check`) drive the exact
  service logic one transition at a time under a virtual clock.
* **Single writer = the event loop.**  The
  :class:`~repro.lockmgr.sharded.ShardedLockCore` is single-threaded by
  design, and so is an event loop: every access to the core — lock
  requests, commits, detection passes, introspection reads — is a plain
  function call made from a loop callback, so the lock table sees a
  strictly serial operation stream (the paper's sequential transaction
  model, preserved over the network) with no queue, task or future
  between a frame and its core step.
* **Burst → steps → settle.**  Each connection is one
  :class:`ServerConnection` (an :class:`asyncio.Protocol`).
  ``data_received`` splits every complete frame out of the segment and,
  per frame, validates its fields, runs the core step and then
  ``core.pump()``; replies — the frame's own and those of parked waits
  the pump just resolved, on any connection — are only *encoded* into
  per-connection outboxes.  The callback schedules :meth:`LockServer.
  _settle` **once per loop turn**: **journal flush, then one**
  ``transport.write`` **per connection with replies, then any pending
  close** — every connection read in one ``select()`` shares one group
  commit, and since nothing else writes a reply byte, durability before
  reply holds by construction.  Timers, the detector tick, the reaper
  tick, a lost connection and ``LoopbackServer.submit`` are the other
  callbacks that touch the core; each ends in the same settle, at once.
  A flush that fails stops the server (:meth:`LockServer._fail_stop`).
* **Parked waiters.**  A blocking ``lock`` request does not answer until
  the transaction is granted or aborted: the step parks a
  :class:`~repro.service.core.ParkedWait` keyed by transaction id whose
  callback encodes the reply when the pump (granted?  aborted?)
  resolves it — the network analogue of the condition variables in
  :class:`~repro.lockmgr.sharded.ShardedLockManager`.  A wait
  with a timeout arms one ``loop.call_later``; it answers ``timeout``
  but leaves the request queued, so a retried ``lock`` resumes the same
  queue position.
* **Flow control.**  While a peer's unread replies hold its transport
  over the high-water mark the server stops *reading* that peer, so
  what one connection can make the server buffer is bounded.
* **Sessions and leases.**  Every connection is a session holding a
  lease that each received frame (heartbeats included) renews.  A silent
  client's lease expires: its transactions are aborted, its locks freed
  and its connection closed — a crashed or hung client cannot wedge the
  lock table.  A rude disconnect (no ``goodbye``) is cleaned up
  immediately.
* **Periodic detector.**  With ``period`` set, an asyncio task runs the
  paper's periodic detection-resolution pass once ``period`` has gone
  by without one; a step that leaves the lock table *saturated* (every
  holder blocked: a cycle for certain) runs that pass at once, so
  ``period`` bounds how long any other deadlock may persist.
  ``policy="continuous"`` instead resolves on every block, exactly as
  in the embedded manager.
"""

from __future__ import annotations

import asyncio
import logging
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

from .. import __version__
from ..core.errors import ReproError
from . import admin
from .core import MAX_LEASE, MIN_LEASE, ParkedWait, ServiceCore, Session
from .journal import SessionJournal, recover_into
from .protocol import (
    FrameTooLarge,
    MAX_FRAME,
    ProtocolError,
    ServiceError,
    detection_to_dict,
    error,
    int_field,
    mode_field,
    ok,
    rid_field,
    seconds_field,
)
from .wire import WIRE_BINARY, WIRE_JSON, FrameBuffer, codec_for, negotiate

__all__ = [
    "LockServer",
    "ServerConnection",
    "Session",
    "ServiceCore",
    "serve",
    "MIN_LEASE",
    "MAX_LEASE",
]

_LOG = logging.getLogger(__name__)

#: Wire telemetry is sampled: one frame in every ``_WIRE_SAMPLE``
#: feeds the size/latency histograms (and the frame counter is bumped
#: by the sampling factor), so the hot path pays the instrument cost
#: ~1.5% of the time.
_WIRE_SAMPLE = 64
_WIRE_SAMPLE_MASK = _WIRE_SAMPLE - 1

_FRAME_BUCKETS = (
    16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
    16384.0, 65536.0, 262144.0, 1048576.0,
)
_CODEC_BUCKETS = (
    0.000001, 0.000002, 0.000005, 0.00001, 0.00002, 0.00005,
    0.0001, 0.0005, 0.002,
)


class ServerConnection(asyncio.Protocol):
    """One peer of a :class:`LockServer`: received bytes in, encoded
    replies out (see "Burst → steps → settle" in the module docstring).

    The core holds it as the session's ``transport`` handle, so a lease
    expiry or a shutdown closes the connection through :meth:`close` —
    after the replies already encoded for it have been written.
    """

    def __init__(self, server: "LockServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.BaseTransport] = None
        self.session: Optional[Session] = None
        #: The handshake is always JSON; its reply switches the codec.
        self.frames = FrameBuffer(server.max_frame)
        #: Encoded replies awaiting the settle step's single write.
        self.outbox: List[bytes] = []
        #: tid -> the ``call_later`` handle of its parked wait's timeout.
        self.timers: Dict[int, asyncio.TimerHandle] = {}
        self.closing = False
        #: The peer is not reading: its write buffer is over the
        #: high-water mark, so this side has stopped reading too.
        self.paused = False
        self._nframes = 0

    # -- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        server = self.server
        try:
            for frame, nbytes, seconds in self.frames.feed(data):
                server._on_frame(self, frame, nbytes, seconds)
                if self.closing:
                    break
        except ProtocolError as exc:
            self._refuse(exc)
        if not server._settle_due:
            server._settle_due = True
            server._loop.call_soon(server._settle)

    def eof_received(self) -> None:
        try:
            self.frames.eof()
        except ProtocolError as exc:
            self._refuse(exc)
            self.server._settle()

    def connection_lost(self, exc) -> None:
        self.transport = None
        server = self.server
        server._connections.discard(self)
        session = self.session
        if session is not None and not session.closed:
            if not session.detached:
                server.stats.rude_disconnects += 1
            server._submit(lambda: server.core.close_session(session))

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()

    # -- replies -----------------------------------------------------------

    def send(self, message: dict, reply_to: Optional[str] = None) -> None:
        """Encode one reply into the outbox; the next settle writes it,
        after the journal flush that covers its records."""
        if self.transport is None:
            return
        server = self.server
        codec = self.frames.codec
        message.setdefault("epoch", server.restart_epoch)
        telemetry = server.core.telemetry
        if telemetry.enabled and self._nframes & _WIRE_SAMPLE_MASK == 0:
            started = perf_counter()
            data = codec.encode(message, reply_to, server.max_frame)
            server._observe_frame(
                codec.name, "out", len(data), perf_counter() - started
            )
        else:
            data = codec.encode(message, reply_to, server.max_frame)
        self.outbox.append(data)
        server._dirty.add(self)

    def close(self) -> None:
        """Close after the pending replies went out (the core calls this
        through ``session.transport``)."""
        self.closing = True
        self.server._dirty.add(self)

    def _refuse(self, exc: ProtocolError) -> None:
        # The stream cannot be resynchronized past a refused frame.
        self.server.stats.protocol_errors += 1
        oversized = isinstance(exc, FrameTooLarge)
        code = "frame-too-large" if oversized else "protocol"
        self.send(error(None, code, str(exc)))
        self.close()

    def _flush(self) -> None:
        transport = self.transport
        if transport is not None:
            if self.outbox:
                transport.write(b"".join(self.outbox))
            if self.closing and self.paused:
                # A peer that stopped reading would hold a graceful
                # close (and a 3.12 ``wait_closed``) hostage.
                transport.abort()
            elif self.closing:
                transport.close()
        self.outbox.clear()


class LockServer:
    """Serves a :class:`ServiceCore` over TCP (see module docstring).

    Parameters mirror the embedded managers: ``policy`` picks the
    detection policy (``"continuous"`` is the companion detector),
    ``period`` is the periodic detector cadence in seconds (None
    disables the background task — deadlocks then resolve only on
    explicit ``detect`` requests), ``lease`` is the default session
    lease granted to clients that do not ask for one.  Victims are
    priced at the default :class:`~repro.core.victim.CostTable`.
    """

    def __init__(
        self,
        period: Optional[float] = 0.5,
        lease: float = 5.0,
        telemetry=None,
        shards: int = 1,
        journal_path: Optional[str] = None,
        journal_fsync: str = "batch",
        journal=None,
        incident_log=None,
        policy="periodic",
        max_frame: int = MAX_FRAME,
    ) -> None:
        self.core = ServiceCore(
            lease=lease,
            telemetry=telemetry,
            shards=shards,
            incident_log=incident_log,
            policy=policy,
        )
        self.continuous = self.core.continuous
        self.period = period
        #: Passes run unasked (a deadlock-free policy, the nowait lane,
        #: has nothing for one to find); loop time of the last of them.
        self._clocked = period is not None and self.core.policy.wants_periodic
        self._last_pass = 0.0
        self.lease = lease
        # The journal is built here but only replayed and attached in
        # :meth:`start` — recovery wants the loop clock installed first.
        if journal is None and journal_path is not None:
            journal = SessionJournal(journal_path, fsync=journal_fsync)
        self._journal = journal
        #: How many times a server booted on this journal; stamped into
        #: every outgoing frame so clients can see a reincarnation.
        self.restart_epoch = 0
        #: The :class:`~repro.service.journal.RecoveryReport` of the
        #: start-time replay (None when running without a journal).
        self.recovery = None
        #: Per-connection frame-size ceiling, both decode paths (JSON
        #: and binary) and outgoing encodes alike.
        self.max_frame = int(max_frame)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: Path of the UNIX-domain listener when serving on one.
        self.unix: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[ServerConnection] = set()
        #: Connections with replies (or a close) awaiting the settle.
        self._dirty: Set[ServerConnection] = set()
        #: A received burst has scheduled this loop turn's settle.
        self._settle_due = False
        #: The journal error this server stopped on.
        self.failed: Optional[OSError] = None
        self._tasks: List[asyncio.Task] = []
        #: (codec, direction) -> its frames, bytes and codec-time series.
        self._wire_series: Dict[tuple, tuple] = {}

    # -- core views --------------------------------------------------------

    @property
    def manager(self):
        return self.core.manager

    @property
    def stats(self):
        return self.core.stats

    # -- lifecycle ---------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
    ) -> "LockServer":
        """Bind and start serving; ``port=0`` picks a free port (read it
        back from :attr:`port`).  With ``unix`` set, listen on a
        UNIX-domain socket at that path instead of TCP (same protocol)."""
        loop = self._loop = asyncio.get_running_loop()
        self.core.clock = self.core.telemetry.clock = loop.time
        if self._journal is not None:
            # Replay the durable prefix (a fresh journal replays zero
            # records), stamp this boot, honor/reap leases.
            self.recovery = recover_into(self.core, self._journal)
            self.restart_epoch = self._journal.epoch
            # Incident records carry the restart epoch, so forensics
            # can tell which process lifetime a deadlock belongs to.
            self.core.restart_epoch = self.restart_epoch
        self._tasks.append(asyncio.ensure_future(self._reaper_loop()))
        if self._clocked:
            self._tasks.append(asyncio.ensure_future(self._detector_loop()))
        if unix is not None:
            self._server = await loop.create_unix_server(
                lambda: ServerConnection(self), path=unix
            )
            self.unix = unix
        else:
            self._server = await loop.create_server(
                lambda: ServerConnection(self), host, port
            )
            address = self._server.sockets[0].getsockname()
            self.host, self.port = address[0], address[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled, or until a fail-stop raises here."""
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            if self.failed is None:
                raise
            raise self.failed from None

    async def aclose(self) -> None:
        """Stop serving: close the listener, every task, session and
        connection.  Raises the exception a background task died of."""
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        ended = await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        # Sessions and transports go first: ``wait_closed`` (3.12) only
        # returns once every accepted connection is gone.
        for session in list(self.core.sessions.values()):
            self.core.close_session(session)
        for connection in list(self._connections):
            connection.close()
        self._settle()
        if self._server is not None:
            await self._server.wait_closed()
        if self.core.journal is not None:
            self.core.journal.close()
        for result in ended + [self.failed]:
            if isinstance(result, Exception):
                raise result

    async def crash(self) -> None:
        """Tear down as if ``kill -9`` hit after the last flush: drop
        the journal's unwritten tail and journal *nothing* during
        shutdown (no close records), so a successor replaying the file
        sees exactly the durable prefix.  Test hook."""
        journal, self.core.journal = self.core.journal, None
        if journal is not None:
            journal.abandon()
        await self.aclose()

    # -- the serialized core operation ---------------------------------------

    def _submit(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as one core operation on the loop thread — step,
        pump, settle — and return (or raise) its result.  Every touch
        of the core that is not a frame goes through here."""
        try:
            return fn()
        finally:
            self._pump()
            self._settle()

    def _pump(self) -> None:
        """The one post-step path.  A step that left the table saturated
        closed a cycle for certain: the pass runs now, not up to a period
        later, and the pump answers its victim in this settle."""
        core = self.core
        if self._clocked and core.manager.saturated():
            core.stats.certain_passes += 1
            try:
                self._pass()
            except Exception:  # like a clock pass's: counted, survived
                self.stats.tick_failures += 1
                _LOG.exception("certain detection pass failed")
        core.pump()

    def _settle(self) -> None:
        """Group-commit whatever was journaled since the last settle,
        *then* write each connection's replies in one piece, then close
        the connections due to close.  No reply byte can precede the
        flush covering its records, and none follows a failed one."""
        self._settle_due = False
        journal = self.core.journal
        if journal is not None:
            flush_started = perf_counter()
            try:
                flushed = journal.flush()
            except OSError as exc:
                return self._fail_stop(exc)
            if flushed:
                self.core.stats.journal_flushes += 1
                self.core.telemetry.journal_flush(
                    perf_counter() - flush_started
                )
        while self._dirty:
            self._dirty.pop()._flush()

    def _fail_stop(self, exc: OSError) -> None:
        """The journal could not be made durable: answer nobody — drop
        every encoded reply, abort every connection, stop listening.
        ``exc`` surfaces from :meth:`serve_forever` and :meth:`aclose`."""
        _LOG.critical("journal flush failed, server stopping: %s", exc)
        self.failed = exc
        self.core.journal = None
        for connection in list(self._connections):
            transport, connection.transport = connection.transport, None
            connection.outbox.clear()
            if transport is not None:
                transport.abort()
        self._dirty.clear()
        if self._server is not None:
            self._server.close()

    # -- background tasks ------------------------------------------------------

    async def _detector_loop(self) -> None:
        # A pass is due one period — which the policy may retune (the
        # adaptive controller) — after the last pass of either kind.
        self._last_pass = self._loop.time()
        while True:
            interval = self.core.policy.current_period(self.period)
            last = self._last_pass
            due = last + (self.period if interval is None else interval)
            await asyncio.sleep(max(due - self._loop.time(), 0.0))
            if self._last_pass == last:  # else a certain pass ran meanwhile
                self._tick(self._pass)

    def _pass(self):
        """One detection pass, clock-driven or certain."""
        self._last_pass = self._loop.time()
        return self.core.detect_step()

    async def _reaper_loop(self) -> None:
        while True:
            now = self._loop.time()
            deadline = self.core.next_deadline()
            # Sleep toward the earliest deadline, but never long enough
            # that a freshly connected short-lease session could expire
            # unnoticed for more than ~0.1s.
            wake = deadline - now if deadline is not None else 0.1
            await asyncio.sleep(min(max(wake, 0.02), 0.1))
            self._tick(self.core.expire_sessions)

    def _tick(self, step: Callable[[], object]) -> None:
        """One background step.  A failing one is counted and logged;
        the loop that runs it must outlive it (a dead reaper would
        never expire another lease)."""
        try:
            self._submit(step)
        except Exception:
            self.stats.tick_failures += 1
            _LOG.exception("background step %r failed", step)

    # -- frames ------------------------------------------------------------------

    def _observe_frame(
        self, codec_name: str, direction: str, nbytes: int, seconds: float
    ) -> None:
        """Sampled wire telemetry: one observed frame stands for the
        :data:`_WIRE_SAMPLE` frames around it.  The series of a (codec,
        direction) are looked up by name on its first frame, then held."""
        key = (codec_name, direction)
        if key not in self._wire_series:
            registry = self.core.telemetry.registry
            labels = {"codec": codec_name, "direction": direction}
            self._wire_series[key] = (
                registry.counter(
                    "repro_wire_frames_total",
                    help="frames on the wire (sampled, x%d)" % _WIRE_SAMPLE,
                    labels=labels,
                ),
                registry.histogram(
                    "repro_frame_bytes",
                    help="on-wire frame size per codec and direction "
                    "(sampled)",
                    labels=labels,
                    buckets=_FRAME_BUCKETS,
                ),
                registry.histogram(
                    "repro_wire_codec_seconds",
                    help="pure encode/decode latency of one frame (sampled; "
                    "direction=in is decode, direction=out is encode)",
                    labels=labels,
                    buckets=_CODEC_BUCKETS,
                ),
            )
        frames, sizes, codec_seconds = self._wire_series[key]
        frames.inc(_WIRE_SAMPLE)
        sizes.observe(nbytes)
        codec_seconds.observe(seconds)

    def _on_frame(
        self,
        connection: ServerConnection,
        frame: dict,
        nbytes: int,
        decode_seconds: float,
    ) -> None:
        """One received frame: its core step inline, then the pump."""
        session = connection.session
        if session is None:
            self._handshake(connection, frame)
        else:
            connection._nframes += 1
            if (
                self.core.telemetry.enabled
                and connection._nframes & _WIRE_SAMPLE_MASK == 0
            ):
                self._observe_frame(
                    connection.frames.codec.name, "in", nbytes, decode_seconds
                )
            self.core.touch_session(session)
            if frame.get("op") == "goodbye":
                session.detached = True
                connection.send(ok(frame.get("id")))
                # Closed here, not on connection loss, so the ``close``
                # record is flushed before the farewell goes out.
                self.core.close_session(session)
            else:
                self._dispatch(connection, frame)
        self._pump()

    def _handshake(self, connection: ServerConnection, first: dict) -> None:
        request_id = first.get("id")
        handshake = first.get("op")
        try:
            if handshake == "resume":
                session = self.core.resume_session(
                    first.get("session"),
                    first.get("token"),
                    transport=connection,
                )
            elif handshake == "hello":
                session = self.core.open_session(
                    lease=seconds_field(first, "lease"),
                    transport=connection,
                )
            else:
                raise ServiceError(
                    "handshake", "first frame must be a hello or a resume"
                )
        except ServiceError as exc:
            connection.send(error(request_id, exc.code, exc.message))
            connection.close()
            return
        connection.session = session
        granted = negotiate(first.get("wire"))
        reply = ok(
            request_id,
            session=session.sid,
            lease=session.lease,
            token=session.token,
            tids=sorted(session.tids),
            server={
                "version": __version__,
                # Capability advertisement: the newest wire dialect
                # this server speaks (the grant itself is the
                # top-level ``wire`` field, present only when
                # granted).
                "wire": WIRE_BINARY,
                "period": self.period,
                "continuous": self.continuous,
                "shards": self.core.shards,
                "policy": self.core.policy.name,
                "epoch": self.restart_epoch,
            },
        )
        if granted != WIRE_JSON:
            # The switch signal: a v1 client never asked, so its
            # reply — like every v1 frame — stays bit-for-bit.
            reply["wire"] = granted
        connection.send(reply)
        if granted != WIRE_JSON:
            connection.frames.codec = codec_for(granted)
            self.stats.binary_connections += 1

    def _dispatch(self, connection: ServerConnection, frame: dict) -> None:
        request_id = frame.get("id")
        op = frame.get("op")
        self.stats.requests += 1
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ServiceError(
                    "bad-op", "unknown operation {!r}".format(op)
                )
            reply = handler(self, connection, frame)
            if reply is not None:  # None: a parked wait answers later
                connection.send(reply, op)
        except ServiceError as exc:
            connection.send(error(request_id, exc.code, exc.message))
        except ReproError as exc:
            connection.send(error(request_id, "error", str(exc)))
        except Exception as exc:
            # Every frame field is validated before the core step, so
            # this is a server bug, not a peer's doing; name the type
            # but never echo a Python repr onto the wire.
            _LOG.exception("operation %r failed", op)
            connection.send(
                error(
                    request_id,
                    "internal",
                    "internal error ({})".format(type(exc).__name__),
                )
            )

    # -- operations: validate the fields, run the core step, return the reply --

    def _op_heartbeat(self, connection, frame) -> dict:
        # The lease was already renewed on frame receipt.
        session = connection.session
        return ok(
            frame.get("id"),
            lease=session.lease,
            remaining=max(session.deadline - self._loop.time(), 0.0),
        )

    def _op_begin(self, connection, frame) -> dict:
        tid = self.core.begin_step(
            connection.session, int_field(frame, "tid", None)
        )
        return ok(frame.get("id"), tid=tid)

    def _op_lock(self, connection, frame) -> Optional[dict]:
        tid = int_field(frame, "tid")
        rid = rid_field(frame)
        mode = mode_field(frame)
        timeout = seconds_field(frame, "timeout")
        request_id = frame.get("id")
        status, event, parked = self.core.lock_step(
            connection.session,
            tid,
            rid,
            mode,
            wait=bool(frame.get("wait", True)),
        )
        if status != "parked":
            return ok(request_id, status=status, event=event)
        # Only a request that blocks pays for its later answer.
        parked.callback = partial(
            self._lock_resolved, connection, tid, request_id, event
        )
        if timeout is not None:
            connection.timers[tid] = self._loop.call_later(
                timeout, self._wait_timeout, tid, parked
            )
        return None

    def _lock_resolved(
        self, connection, tid: int, request_id, event, status: str
    ) -> None:
        """Answer a parked ``lock``: fired by whichever step resolves
        the wait — the pump, a sweep of the session, or its timeout."""
        timer = connection.timers.pop(tid, None)
        if timer is not None:
            timer.cancel()
        connection.send(ok(request_id, status=status, event=event), "lock")

    def _wait_timeout(self, tid: int, parked: ParkedWait) -> None:
        # Un-park (the resolution wins if it got there first), but
        # leave the request queued so a retried lock resumes the same
        # position.
        self._submit(
            lambda: parked.resolve(self.core.cancel_wait(tid, parked))
        )

    def _op_finish(self, connection, frame) -> dict:
        tid = int_field(frame, "tid")
        grants = self.core.finish_step(
            connection.session, tid, aborting=frame["op"] == "abort"
        )
        return ok(frame.get("id"), tid=tid, grants=grants)

    def _op_batch(self, connection, frame) -> dict:
        results = self.core.batch_step(connection.session, frame.get("ops"))
        return ok(frame.get("id"), results=results)

    def _op_detect(self, connection, frame) -> dict:
        return ok(
            frame.get("id"), **detection_to_dict(self.core.detect_step())
        )

    def _op_inspect(self, connection, frame) -> dict:
        return ok(frame.get("id"), **admin.inspect_payload(self.manager))

    def _op_graph(self, connection, frame) -> dict:
        dot = bool(frame.get("dot", False))
        payload = admin.graph_payload(self.manager, dot=dot)
        return ok(frame.get("id"), **payload)

    def _op_dump(self, connection, frame) -> dict:
        return ok(frame.get("id"), **admin.dump_payload(self.manager))

    def _op_log(self, connection, frame) -> dict:
        limit = int_field(frame, "limit", 100)
        return ok(frame.get("id"), **admin.log_payload(self.manager, limit))

    def _op_stats(self, connection, frame) -> dict:
        return ok(frame.get("id"), stats=self.core.stats_payload())

    def _op_metrics(self, connection, frame) -> dict:
        return ok(frame.get("id"), **admin.metrics_payload(self.core))

    def _op_spans(self, connection, frame) -> dict:
        payload = admin.spans_payload(
            self.core,
            limit=int_field(frame, "limit", 0),
            annotations=bool(frame.get("annotations", False)),
        )
        return ok(frame.get("id"), **payload)

    def _op_holding(self, connection, frame) -> dict:
        held = self.manager.holding(int_field(frame, "tid"))
        return ok(
            frame.get("id"),
            holding={rid: mode.name for rid, mode in held.items()},
        )

    def _op_deadlocked(self, connection, frame) -> dict:
        return ok(frame.get("id"), deadlocked=self.manager.deadlocked())

    _HANDLERS: Dict[
        str,
        Callable[["LockServer", ServerConnection, dict], Optional[dict]],
    ] = {
        "heartbeat": _op_heartbeat,
        "begin": _op_begin,
        "lock": _op_lock,
        "commit": _op_finish,
        "abort": _op_finish,
        "batch": _op_batch,
        "detect": _op_detect,
        "inspect": _op_inspect,
        "graph": _op_graph,
        "dump": _op_dump,
        "log": _op_log,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "spans": _op_spans,
        "holding": _op_holding,
        "deadlocked": _op_deadlocked,
    }


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> LockServer:
    """Create and start a :class:`LockServer` (convenience wrapper)."""
    server = LockServer(**kwargs)
    await server.start(host, port)
    return server
