"""The asyncio lock server: ``LockManager`` as a network service.

Architecture
------------

* **Synchronous core.**  Everything the service *is* — sessions and
  leases, transaction ownership, parked waits and their pump, the
  detection step, the counters — lives in the synchronous
  :class:`~repro.service.core.ServiceCore`.  This module is the network
  shell around it: sockets, frames, tasks.  The split is what lets the
  deterministic schedule explorer (:mod:`repro.check`) drive the exact
  service logic one transition at a time under a virtual clock.
* **Single writer.**  The :class:`~repro.lockmgr.manager.LockManager` is
  single-threaded by design; the server funnels *every* access to it —
  lock requests, commits, detection passes, introspection reads —
  through one asyncio queue consumed by one writer task, so connection
  handlers can run concurrently while the lock table sees a strictly
  serial operation stream (the paper's sequential transaction model,
  preserved over the network).
* **Parked waiters.**  A blocking ``lock`` request does not answer until
  the transaction is granted or aborted: the writer parks a
  :class:`~repro.service.core.ParkedWait` keyed by transaction id, and
  after every operation the core *pumps* the parked waits against the
  manager (granted?  aborted?) — the network analogue of the condition
  variables in :class:`~repro.lockmgr.concurrent.ConcurrentLockManager`.
  A wait with a timeout answers ``timeout`` but leaves the request
  queued, so a retried ``lock`` resumes the same queue position.
* **Sessions and leases.**  Every connection is a session holding a
  lease that each received frame (heartbeats included) renews.  A silent
  client's lease expires: its transactions are aborted, its locks freed
  and its connection closed — a crashed or hung client cannot wedge the
  lock table.  A rude disconnect (no ``goodbye``) is cleaned up
  immediately.
* **Periodic detector.**  With ``period`` set, an asyncio task runs the
  paper's periodic detection-resolution pass through the writer queue on
  that cadence; ``continuous=True`` instead resolves on every block,
  exactly as in the embedded manager.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Awaitable, Callable, Dict, List, Optional, Set

from .. import __version__
from ..core.errors import ReproError
from ..core.victim import CostTable
from ..obs.metrics import DURATION_BUCKETS as _FSYNC_BUCKETS
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
    read_frame,
    rid_field,
    seconds_field,
)
from .wire import JSON_CODEC, WIRE_BINARY, WIRE_JSON, codec_for, negotiate

__all__ = [
    "LockServer",
    "Session",
    "ServiceCore",
    "serve",
    "MIN_LEASE",
    "MAX_LEASE",
]

#: Outgoing frames are buffered by the transport; a drain (one loop
#: hop, possibly a flow-control wait) is only taken once the buffer is
#: this deep.  Small request/response frames almost never hit it.
_DRAIN_THRESHOLD = 64 * 1024

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


class LockServer:
    """Serves a :class:`ServiceCore` over TCP (see module docstring).

    Parameters mirror the embedded managers: ``costs`` feeds victim
    selection, ``continuous`` switches to the companion detector,
    ``period`` is the periodic detector cadence in seconds (None
    disables the background task — deadlocks then resolve only on
    explicit ``detect`` requests), ``lease`` is the default session
    lease granted to clients that do not ask for one.
    """

    def __init__(
        self,
        costs: Optional[CostTable] = None,
        continuous: bool = False,
        period: Optional[float] = 0.5,
        lease: float = 5.0,
        telemetry=None,
        shards: Optional[int] = None,
        sequence_source=None,
        journal_path: Optional[str] = None,
        journal_fsync: str = "batch",
        journal=None,
        incident_log=None,
        policy=None,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self.core = ServiceCore(
            costs=costs,
            continuous=continuous,
            lease=lease,
            telemetry=telemetry,
            shards=shards,
            sequence_source=sequence_source,
            incident_log=incident_log,
            policy=policy,
        )
        self.continuous = self.core.continuous
        self.period = period
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
        self._ops: "asyncio.Queue" = asyncio.Queue()
        self._tasks: List[asyncio.Task] = []

    # -- core views --------------------------------------------------------

    @property
    def manager(self):
        return self.core.manager

    @property
    def stats(self):
        return self.core.stats

    @property
    def _sessions(self) -> Dict[str, Session]:
        return self.core.sessions

    @property
    def _owners(self) -> Dict[int, Session]:
        return self.core.owners

    @property
    def _waiters(self) -> Dict[int, ParkedWait]:
        return self.core.waiters

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
        self._loop = asyncio.get_running_loop()
        self.core.clock = self._loop.time
        if self._journal is not None:
            # Replay the durable prefix (a fresh journal replays zero
            # records), stamp this boot, honor/reap leases.
            self.recovery = recover_into(self.core, self._journal)
            self.restart_epoch = self._journal.epoch
            # Incident records carry the restart epoch, so forensics
            # can tell which process lifetime a deadlock belongs to.
            self.core.restart_epoch = self.restart_epoch
        self._tasks.append(asyncio.ensure_future(self._writer_loop()))
        self._tasks.append(asyncio.ensure_future(self._reaper_loop()))
        # A deadlock-free policy (the nowait lane) has nothing for a
        # periodic detector task to find.
        if self.period is not None and self.core.policy.wants_periodic:
            self._tasks.append(asyncio.ensure_future(self._detector_loop()))
        if unix is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=unix
            )
            self.unix = unix
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port
            )
            address = self._server.sockets[0].getsockname()
            self.host, self.port = address[0], address[1]
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop serving: close the listener, every session and task."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self.core.sessions.values()):
            self.core.close_session(session)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self.core.journal is not None:
            self.core.journal.close()

    async def crash(self) -> None:
        """Tear down as if ``kill -9`` hit after the last flush: drop
        the journal's unwritten tail and journal *nothing* during
        shutdown (no close records), so a successor replaying the file
        sees exactly the durable prefix.  Test hook."""
        journal, self.core.journal = self.core.journal, None
        if journal is not None:
            journal.abandon()
        await self.aclose()

    # -- the single-writer queue -------------------------------------------

    async def _submit(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` on the writer task; returns (or raises) its result.
        Every touch of the core goes through here."""
        future = self._loop.create_future()
        await self._ops.put((fn, future))
        return await future

    async def _writer_loop(self) -> None:
        while True:
            fn, future = await self._ops.get()
            try:
                result = fn()
            except Exception as exc:  # delivered to the submitter
                if not future.done():
                    future.set_exception(exc)
                else:  # pragma: no cover - submitter went away
                    pass
            else:
                if not future.done():
                    future.set_result(result)
            self.core.pump()
            # Group commit: everything this pass journaled goes durable
            # in one write+fsync.  The submitter coroutines woken by
            # set_result above cannot run until this task yields at the
            # queue await, so no reply ever precedes its records.
            if self.core.journal is not None:
                flush_started = perf_counter()
                if self.core.journal.flush():
                    self.core.stats.journal_flushes += 1
                    if self.core.telemetry.enabled:
                        self.core.telemetry.registry.histogram(
                            "repro_journal_fsync_seconds",
                            help="write+fsync latency of one journal "
                            "group commit",
                            buckets=_FSYNC_BUCKETS,
                        ).observe(perf_counter() - flush_started)

    # -- background tasks ------------------------------------------------------

    async def _detector_loop(self) -> None:
        # The policy may retune the interval between passes (the
        # adaptive controller); consult it every iteration.
        while True:
            interval = self.core.policy.current_period(self.period)
            await asyncio.sleep(
                self.period if interval is None else interval
            )
            await self._submit(self.core.detect_step)

    async def _reaper_loop(self) -> None:
        while True:
            now = self._loop.time()
            deadline = self.core.next_deadline()
            # Sleep toward the earliest deadline, but never long enough
            # that a freshly connected short-lease session could expire
            # unnoticed for more than ~0.1s.
            wake = deadline - now if deadline is not None else 0.1
            await asyncio.sleep(min(max(wake, 0.02), 0.1))
            await self._submit(self.core.expire_sessions)

    # -- connection handling -----------------------------------------------------

    def _observe_frame(
        self, codec_name: str, direction: str, nbytes: int, seconds: float
    ) -> None:
        """Sampled wire telemetry: one observed frame stands for the
        :data:`_WIRE_SAMPLE` frames around it."""
        registry = self.core.telemetry.registry
        labels = {"codec": codec_name, "direction": direction}
        registry.counter(
            "repro_wire_frames_total",
            help="frames on the wire (sampled, x{})".format(_WIRE_SAMPLE),
            labels=labels,
        ).inc(_WIRE_SAMPLE)
        registry.histogram(
            "repro_frame_bytes",
            help="on-wire frame size per codec and direction (sampled)",
            labels=labels,
            buckets=_FRAME_BUCKETS,
        ).observe(nbytes)
        registry.histogram(
            "repro_wire_codec_seconds",
            help="pure encode/decode latency of one frame (sampled; "
            "direction=in is decode, direction=out is encode)",
            labels=labels,
            buckets=_CODEC_BUCKETS,
        ).observe(seconds)

    async def _handle_connection(self, reader, writer) -> None:
        session: Optional[Session] = None
        codec = JSON_CODEC
        max_frame = self.max_frame
        drain_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        transport = writer.transport
        telemetry = self.core.telemetry
        nframes = 0

        async def send(message: dict, reply_to: Optional[str] = None) -> None:
            message.setdefault("epoch", self.restart_epoch)
            if telemetry.enabled and nframes & _WIRE_SAMPLE_MASK == 0:
                started = perf_counter()
                data = codec.encode(message, reply_to, max_frame)
                self._observe_frame(
                    codec.name, "out", len(data), perf_counter() - started
                )
            else:
                data = codec.encode(message, reply_to, max_frame)
            # ``write`` appends the whole frame atomically; the lock only
            # serializes drains (the flow-control waiter is single-slot),
            # and a drain is only worth its loop hop once the transport
            # buffer is actually deep.
            writer.write(data)
            if transport.get_write_buffer_size() > _DRAIN_THRESHOLD:
                async with drain_lock:
                    await writer.drain()

        try:
            # The handshake is always JSON; the reply tells both sides
            # which codec every later frame uses.
            first = await read_frame(reader, max_frame)
            if first is None:
                return
            handshake = first.get("op")
            if handshake not in ("hello", "resume"):
                await send(
                    error(
                        first.get("id"),
                        "handshake",
                        "first frame must be a hello or a resume",
                    )
                )
                return
            # Both handshakes run on the writer so their journal
            # records are flushed before the reply goes out.
            try:
                if handshake == "resume":
                    session = await self._submit(
                        lambda: self.core.resume_session(
                            first.get("session"),
                            first.get("token"),
                            transport=writer,
                        )
                    )
                else:
                    lease = seconds_field(first, "lease")
                    session = await self._submit(
                        lambda: self.core.open_session(
                            lease=lease, transport=writer
                        )
                    )
            except ServiceError as exc:
                await send(error(first.get("id"), exc.code, exc.message))
                return
            granted = negotiate(first.get("wire"))
            reply = ok(
                first.get("id"),
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
            await send(reply)
            if granted != WIRE_JSON:
                codec = codec_for(granted)
                self.stats.binary_connections += 1
            read_metered = codec.read_metered
            while True:
                frame, nbytes, decode_seconds = await read_metered(
                    reader, max_frame
                )
                if frame is None:
                    break
                nframes += 1
                if telemetry.enabled and nframes & _WIRE_SAMPLE_MASK == 0:
                    self._observe_frame(
                        codec.name, "in", nbytes, decode_seconds
                    )
                self.core.touch_session(session)
                op = frame.get("op")
                if op == "goodbye":
                    session.detached = True
                    await send(ok(frame.get("id")))
                    break
                task = asyncio.ensure_future(
                    self._dispatch(session, frame, send)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except FrameTooLarge as exc:
            self.stats.protocol_errors += 1
            try:
                await send(error(None, "frame-too-large", str(exc)))
            except (ConnectionError, RuntimeError, ProtocolError):
                pass
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            try:
                await send(error(None, "protocol", str(exc)))
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown; fall through to the cleanup below
        finally:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if session is not None and not session.closed:
                if not session.detached:
                    self.stats.rude_disconnects += 1
                self.core.close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, session: Session, frame: dict, send) -> None:
        request_id = frame.get("id")
        self.stats.requests += 1
        try:
            if session.closed:
                raise ServiceError(
                    "session-expired",
                    "session {} is closed (lease expired?)".format(
                        session.sid
                    ),
                )
            handler = self._HANDLERS.get(frame.get("op"))
            if handler is None:
                raise ServiceError(
                    "bad-op", "unknown operation {!r}".format(frame.get("op"))
                )
            await handler(self, session, frame, send)
        except asyncio.CancelledError:
            raise
        except ServiceError as exc:
            await self._safe_send(send, error(request_id, exc.code, exc.message))
        except ReproError as exc:
            await self._safe_send(send, error(request_id, "error", str(exc)))
        except Exception as exc:  # pragma: no cover - last resort
            # Every frame field is validated before the core step, so
            # this is a server bug, not a peer's doing; name the type
            # but never echo a Python repr onto the wire.
            await self._safe_send(
                send,
                error(
                    request_id,
                    "internal",
                    "internal error ({})".format(type(exc).__name__),
                ),
            )

    @staticmethod
    async def _safe_send(send, message: dict) -> None:
        try:
            await send(message)
        except (ConnectionError, RuntimeError):
            pass

    # -- operations --------------------------------------------------------------

    async def _op_heartbeat(self, session, frame, send) -> None:
        # The lease was already renewed on frame receipt.
        await send(
            ok(
                frame.get("id"),
                lease=session.lease,
                remaining=max(session.deadline - self._loop.time(), 0.0),
            ),
            "heartbeat",
        )

    async def _op_begin(self, session, frame, send) -> None:
        requested = int_field(frame, "tid", None)
        tid = await self._submit(
            lambda: self.core.begin_step(session, requested)
        )
        await send(ok(frame.get("id"), tid=tid), "begin")

    async def _op_lock(self, session, frame, send) -> None:
        tid = int_field(frame, "tid")
        rid = rid_field(frame)
        mode = mode_field(frame)
        wait = bool(frame.get("wait", True))
        timeout = seconds_field(frame, "timeout")
        future = self._loop.create_future()

        def resolve(status: str) -> None:
            if not future.done():
                future.set_result(status)

        def step():
            return self.core.lock_step(
                session,
                tid,
                rid,
                mode,
                wait=wait,
                callback=resolve,
                trace=frame.get("trace"),
                parent=frame.get("span"),
            )

        status, event, parked = await self._submit(step)
        if status == "parked":
            done, _ = await asyncio.wait([future], timeout=timeout)
            if done:
                status = future.result()
            else:
                # Timed out: un-park on the writer (the resolution wins
                # if it got there first), but leave the request queued
                # so a retried lock resumes the same position.
                status = await self._submit(
                    lambda: self.core.cancel_wait(tid, parked)
                )
        await send(
            ok(frame.get("id"), status=status, event=event), "lock"
        )

    async def _op_commit(self, session, frame, send) -> None:
        await self._finish(session, frame, send, aborting=False)

    async def _op_abort(self, session, frame, send) -> None:
        await self._finish(session, frame, send, aborting=True)

    async def _finish(self, session, frame, send, aborting: bool) -> None:
        tid = int_field(frame, "tid")
        grants = await self._submit(
            lambda: self.core.finish_step(session, tid, aborting)
        )
        await send(
            ok(frame.get("id"), tid=tid, grants=grants),
            "abort" if aborting else "commit",
        )

    async def _op_batch(self, session, frame, send) -> None:
        results = await self._submit(
            lambda: self.core.batch_step(session, frame.get("ops"))
        )
        await send(ok(frame.get("id"), results=results), "batch")

    async def _op_detect(self, session, frame, send) -> None:
        result = await self._submit(self.core.detect_step)
        await send(ok(frame.get("id"), **detection_to_dict(result)))

    async def _op_snapshot(self, session, frame, send) -> None:
        payload = await self._submit(self.core.snapshot_step)
        await send(ok(frame.get("id"), snapshot=payload), "snapshot")

    async def _op_resolve(self, session, frame, send) -> None:
        reply = await self._submit(
            lambda: self.core.resolve_step(frame.get("plan"))
        )
        await send(ok(frame.get("id"), reply=reply), "resolve")

    async def _op_inspect(self, session, frame, send) -> None:
        payload = await self._submit(
            lambda: admin.inspect_payload(self.manager)
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_graph(self, session, frame, send) -> None:
        dot = bool(frame.get("dot", False))
        payload = await self._submit(
            lambda: admin.graph_payload(self.manager, dot=dot)
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_dump(self, session, frame, send) -> None:
        payload = await self._submit(
            lambda: admin.dump_payload(self.manager)
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_log(self, session, frame, send) -> None:
        limit = int_field(frame, "limit", 100)
        payload = await self._submit(
            lambda: admin.log_payload(self.manager, limit=limit)
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_stats(self, session, frame, send) -> None:
        payload = await self._submit(self.core.stats_payload)
        await send(ok(frame.get("id"), stats=payload))

    async def _op_metrics(self, session, frame, send) -> None:
        payload = await self._submit(
            lambda: admin.metrics_payload(self.core)
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_spans(self, session, frame, send) -> None:
        limit = int_field(frame, "limit", 0)
        annotations = bool(frame.get("annotations", False))
        payload = await self._submit(
            lambda: admin.spans_payload(
                self.core, limit=limit, annotations=annotations
            )
        )
        await send(ok(frame.get("id"), **payload))

    async def _op_holding(self, session, frame, send) -> None:
        tid = int_field(frame, "tid")
        held = await self._submit(lambda: self.manager.holding(tid))
        await send(
            ok(
                frame.get("id"),
                holding={rid: mode.name for rid, mode in held.items()},
            )
        )

    async def _op_deadlocked(self, session, frame, send) -> None:
        value = await self._submit(self.manager.deadlocked)
        await send(ok(frame.get("id"), deadlocked=value))

    _HANDLERS: Dict[
        str, Callable[["LockServer", Session, dict, object], Awaitable[None]]
    ] = {
        "heartbeat": _op_heartbeat,
        "begin": _op_begin,
        "lock": _op_lock,
        "commit": _op_commit,
        "abort": _op_abort,
        "batch": _op_batch,
        "detect": _op_detect,
        "snapshot": _op_snapshot,
        "resolve": _op_resolve,
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
