"""Clients for the lock service.

Two layers:

* :class:`AsyncLockClient` — the asyncio client.  One TCP connection,
  request/response frames correlated by id, so any number of
  transactions can block in ``lock`` concurrently while heartbeats keep
  the session lease alive on the same socket.
* :class:`RemoteLockManager` — a *blocking* facade that mirrors the
  :class:`~repro.lockmgr.sharded.ShardedLockManager` API
  (``acquire``/``commit``/``abort``/``detect``/``holding``/
  ``deadlocked``/``snapshot``, context-manager lifetime), so code
  written against the embedded thread-safe manager runs against a
  remote server unchanged.  It owns a private event loop on a daemon
  thread; every public call is thread-safe.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.errors import TransactionAborted
from ..core.modes import LockMode, parse_mode
from .protocol import (
    MAX_FRAME,
    WIRE_VERSION,
    ProtocolError,
    RemoteDetectionResult,
    ServiceError,
    raise_for_error,
    request,
)
from .wire import WIRE_BINARY, WIRE_JSON, FrameBuffer, codec_for, resolve_wire


class AsyncLockClient(asyncio.Protocol):
    """Asyncio client for one :class:`~repro.service.server.LockServer`
    session.  Build one with :meth:`connect`.

    The client *is* its connection's :class:`asyncio.Protocol`:
    ``data_received`` resolves the pending calls straight from the
    segment, and the requests of transactions running concurrently on
    this client leave in one ``transport.write`` per loop turn.
    """

    def __init__(
        self,
        wire: "int | str" = "json",
        max_frame: int = MAX_FRAME,
    ) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transport: Optional[asyncio.BaseTransport] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 1
        #: Received bytes; its codec serves both directions.  The
        #: handshake is always JSON; its reply's ``wire`` field switches
        #: the codec inside ``data_received``, before the next frame.
        self._frames = FrameBuffer(max_frame)
        self._want_wire = resolve_wire(wire)
        #: The negotiated wire version (1 until the handshake grants 2).
        self.wire: int = WIRE_JSON
        #: Encoded requests awaiting this loop turn's single write.
        self._outbox: List[bytes] = []
        #: Pending while the transport's write buffer is over its
        #: high-water mark; senders wait on it instead of piling up.
        self._writable: Optional[asyncio.Future] = None
        self._lost: Optional[asyncio.Future] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._closed = False
        self._conn_error: Optional[Exception] = None
        self.session: Optional[str] = None
        self.lease: Optional[float] = None
        self.server_info: Dict[str, Any] = {}
        #: Resume credential from the handshake: present it to a
        #: restarted server (:meth:`resume`) to reclaim the session.
        self.token: Optional[str] = None
        #: The server's restart epoch as of the handshake; every
        #: response carries the current one (:attr:`last_epoch`), so a
        #: jump means the server was reincarnated mid-conversation.
        self.epoch: int = 0
        self.last_epoch: int = 0
        #: Transaction ids the server reported live at resume time.
        self.resumed_tids: List[int] = []
        #: tid -> trace id stamped on every lock/batch frame of that
        #: transaction, so server-side spans across workers share one
        #: trace (``trace-export`` groups by it).
        self._traces: Dict[int, str] = {}

    def trace_of(self, tid: int) -> str:
        """The trace id this client stamps on ``tid``'s frames (minted
        on first use, stable for the transaction's lifetime)."""
        trace = self._traces.get(tid)
        if trace is None:
            trace = "trace-" + os.urandom(6).hex()
            self._traces[tid] = trace
        return trace

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: Optional[str] = None,
        port: Optional[int] = None,
        lease: Optional[float] = None,
        heartbeat: bool = True,
        wire: "int | str" = "json",
        unix: Optional[str] = None,
        max_frame: int = MAX_FRAME,
    ) -> "AsyncLockClient":
        """Open a connection, perform the hello handshake and (by
        default) start the background heartbeat task.

        ``wire`` picks the framing to request (``"json"``, the default,
        or ``"binary"``); a server that does not grant it leaves the
        connection on JSON v1.  ``unix``
        connects to a UNIX-domain socket path instead of TCP."""
        fields = {} if lease is None else {"lease": lease}
        return await cls(wire, max_frame)._open(
            "hello", fields, host, port, unix, heartbeat
        )

    @classmethod
    async def resume(
        cls,
        host: Optional[str],
        port: Optional[int],
        session: str,
        token: str,
        heartbeat: bool = True,
        wire: "int | str" = "json",
        unix: Optional[str] = None,
        max_frame: int = MAX_FRAME,
    ) -> "AsyncLockClient":
        """Reclaim a session a restarted server recovered from its
        journal: ``resume`` instead of ``hello`` as the first frame,
        presenting the :attr:`token` from the original handshake.
        Raises :class:`ServiceError` (``unknown-session``/``bad-token``/
        ``session-busy``) when the server will not honor it."""
        fields = {"session": session, "token": token}
        return await cls(wire, max_frame)._open(
            "resume", fields, host, port, unix, heartbeat
        )

    async def _open(
        self, op: str, fields: Dict[str, Any], host, port, unix, heartbeat
    ) -> "AsyncLockClient":
        loop = asyncio.get_running_loop()
        if unix is not None:
            await loop.create_unix_connection(lambda: self, unix)
        else:
            await loop.create_connection(lambda: self, host, port)
        try:
            await self._handshake(op, fields)
        except BaseException:
            await self.disconnect()
            raise
        if heartbeat:
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop()
            )
        return self

    async def _handshake(self, op: str, fields: Dict[str, Any]) -> None:
        if self._want_wire != WIRE_JSON:
            fields["wire"] = self._want_wire
        response = await self._call(request(None, op, **fields))
        self.session = response["session"]
        self.lease = float(response["lease"])
        self.server_info = dict(response.get("server", {}))
        self.token = response.get("token")
        self.epoch = int(response.get("epoch", 0))
        self.last_epoch = self.epoch
        self.resumed_tids = [int(tid) for tid in response.get("tids", [])]

    async def close(self) -> None:
        """Say goodbye (clean detach) and drop the connection."""
        if self._closed:
            return
        self._closed = True
        self.suspend_heartbeat()
        try:
            goodbye = self._call(request(None, "goodbye"))
            await asyncio.wait_for(goodbye, timeout=2.0)
        except (ServiceError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
        await self.disconnect()

    async def disconnect(self) -> None:
        """Drop the connection with no goodbye — what a crashed client
        looks like to the server — and wait until it is gone."""
        self._closed = True
        self.suspend_heartbeat()
        if self._transport is not None:
            self._transport.abort()
            await self.wait_closed()

    async def wait_closed(self) -> None:
        """Return once the connection is lost, whichever side ended it."""
        if self._lost is not None:
            await self._lost

    async def __aenter__(self) -> "AsyncLockClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def suspend_heartbeat(self) -> None:
        """Stop renewing the lease (tests use this to simulate a hung
        client whose process still holds the TCP connection)."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None

    async def _heartbeat_loop(self) -> None:
        interval = max(self.lease / 3.0, 0.02)
        while True:
            await asyncio.sleep(interval)
            try:
                await self.heartbeat()
            except (ServiceError, ConnectionError, OSError):
                return

    # -- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        self._lost = self._loop.create_future()

    def data_received(self, data: bytes) -> None:
        pending = self._pending
        try:
            for frame, _, _ in self._frames.feed(data):
                if "epoch" in frame:
                    self.last_epoch = int(frame["epoch"])
                if "wire" in frame and frame.get("ok"):
                    # The handshake reply granting a codec switch: take
                    # it *here*, before parsing the next frame and
                    # before the handshake waiter can send under it.
                    granted = frame.get("wire")
                    if granted == WIRE_BINARY:
                        self._frames.codec = codec_for(granted)
                        self.wire = granted
                future = pending.pop(frame.get("id"), None)
                if future is not None:
                    if not future.done():
                        future.set_result(frame)
                elif frame.get("ok") is False and frame.get("id") is None:
                    # A connection-level refusal (frame-too-large,
                    # protocol error): no request id to route it to, so
                    # every in-flight call gets the answer — the server
                    # closes the connection right after.
                    for future in pending.values():
                        if not future.done():
                            future.set_result(frame)
                    pending.clear()
        except ProtocolError as exc:
            self._fail_pending(exc)
            self._transport.abort()

    def connection_lost(self, exc) -> None:
        self._transport = None
        reason = "connection closed"
        if not self._closed:
            reason = "server closed the connection"
        self._fail_pending(exc or ConnectionError(reason))
        self.resume_writing()  # senders at the gate see the loss
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if writable is not None:
            writable.set_result(None)

    # -- plumbing --------------------------------------------------------------

    def _fail_pending(self, exc: Exception) -> None:
        # Remember the terminal error: once the connection is gone, any
        # *future* request would park a response future nobody can ever
        # complete — _call uses this to fail fast instead.
        if self._conn_error is None:
            self._conn_error = exc
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _flush(self) -> None:
        outbox, self._outbox = self._outbox, []
        if self._transport is not None:
            self._transport.write(b"".join(outbox))

    async def _call(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One request (``frame``: a :func:`~repro.service.protocol.
        request` body, its ``id`` assigned here) and its reply, or raise."""
        if self._closed and frame["op"] != "goodbye":
            raise ConnectionError("client is closed")
        # The writable gate: while the server is not draining what was
        # already written, callers queue here, not in the buffer.
        while self._writable is not None:
            await self._writable
        if self._conn_error is not None:
            raise ConnectionError(
                "connection lost: {}".format(self._conn_error)
            )
        request_id = frame["id"] = self._next_id
        self._next_id = request_id + 1
        data = self._frames.codec.encode(frame, None, self._frames.max_frame)
        future = self._pending[request_id] = self._loop.create_future()
        # Every request issued in this loop turn — one per transaction
        # that was woken by the last segment — leaves in one write.
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(data)
        try:
            response = await future
        finally:
            self._pending.pop(request_id, None)
        if response.get("ok"):
            return response
        return raise_for_error(response)

    # -- the locking surface ---------------------------------------------------

    async def begin(self, tid: Optional[int] = None) -> int:
        """Register a transaction with this session; with ``tid=None``
        the server assigns a fresh id."""
        frame = request(None, "begin")
        if tid is not None:
            frame["tid"] = tid
        return int((await self._call(frame))["tid"])

    async def acquire(
        self,
        tid: int,
        rid: str,
        mode: "LockMode | str",
        timeout: Optional[float] = None,
        wait: bool = True,
    ) -> bool:
        """Acquire (or convert to) ``mode`` on ``rid`` for ``tid``.

        True on grant.  False on timeout or — with ``wait=False`` — on
        an immediate block; either way the request stays queued and a
        retried call resumes the same wait.  Raises
        :class:`TransactionAborted` when a detection pass chose ``tid``
        as victim.
        """
        mode_name = mode.name if isinstance(mode, LockMode) else str(mode)
        # request("lock", ...) spelled out: eight of a transaction's ten
        # frames are this one, built once and sent as it is.
        frame: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "id": None,
            "op": "lock",
            "tid": tid,
            "rid": rid,
            "mode": mode_name,
            "wait": wait,
            "trace": self.trace_of(tid),
        }
        if timeout is not None:
            frame["timeout"] = timeout
        status = (await self._call(frame))["status"]
        if status == "granted":
            return True
        if status in ("blocked", "timeout"):
            return False
        if status == "aborted":
            raise TransactionAborted(tid)
        raise ServiceError(
            "bad-status", "unexpected lock status {!r}".format(status)
        )

    lock = acquire

    async def commit(self, tid: int) -> None:
        await self._call(request(None, "commit", tid=tid))
        self._traces.pop(tid, None)

    async def abort(self, tid: int) -> None:
        await self._call(request(None, "abort", tid=tid))
        self._traces.pop(tid, None)

    # -- pipelined batches -------------------------------------------------

    async def batch(self, ops: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Submit pipelined sub-ops in one ``batch`` frame.

        ``ops`` is a list of sub-op dicts (``begin``/``lock``/``commit``/
        ``abort``, see :mod:`repro.service.protocol`).  Returns the
        per-op result list; a failed sub-op reports its error in place
        (``{"ok": false, "error": ...}``) without failing the frame.
        ``lock`` sub-ops never wait — a contended request answers
        ``"blocked"`` and stays queued.
        """
        ops = [dict(op) for op in ops]
        for op in ops:
            if op.get("op") == "lock" and "trace" not in op:
                try:
                    op["trace"] = self.trace_of(int(op["tid"]))
                except (KeyError, ValueError, TypeError):
                    pass  # the server reports the malformed sub-op
        response = await self._call(request(None, "batch", ops=ops))
        return list(response["results"])

    def pipeline(self) -> "LockPipeline":
        """A builder that collects sub-ops and submits them as one
        ``batch`` frame: ``p = client.pipeline(); p.lock(...);
        await p.submit()``."""
        return LockPipeline(self)

    async def acquire_many(
        self,
        tid: int,
        accesses: Iterable[Tuple[str, "LockMode | str"]],
        timeout: Optional[float] = None,
    ) -> bool:
        """Acquire every ``(rid, mode)`` for ``tid``, pipelining the
        whole lock set into one frame.

        Locks that grant immediately cost one round-trip for the entire
        set; each blocked one falls back to an individual waiting
        ``acquire`` (same queue position — batch locks stay queued).
        Returns True when every lock ended up granted, False when any
        wait timed out.  Raises :class:`TransactionAborted` if a
        detection pass chose ``tid`` as victim.
        """
        accesses = list(accesses)
        if not accesses:
            return True
        ops = [
            {
                "op": "lock",
                "tid": tid,
                "rid": rid,
                "mode": mode.name if isinstance(mode, LockMode) else str(mode),
            }
            for rid, mode in accesses
        ]
        all_granted = True
        for (rid, mode), result in zip(accesses, await self.batch(ops)):
            if not result.get("ok"):
                detail = result.get("error") or {}
                raise ServiceError(
                    str(detail.get("code", "error")),
                    str(detail.get("message", "batched lock failed")),
                )
            status = result.get("status")
            if status == "granted":
                continue
            if status == "aborted":
                raise TransactionAborted(tid)
            if status == "blocked":
                if not await self.acquire(tid, rid, mode, timeout=timeout):
                    all_granted = False
                continue
            raise ServiceError(
                "bad-status", "unexpected lock status {!r}".format(status)
            )
        return all_granted

    # -- detection and introspection ----------------------------------------------

    async def detect(self) -> RemoteDetectionResult:
        """Ask the server for one periodic detection-resolution pass."""
        reply = await self._call(request(None, "detect"))
        return RemoteDetectionResult(reply)

    async def heartbeat(self) -> float:
        """Explicit lease renewal; returns the remaining lease time."""
        reply = await self._call(request(None, "heartbeat"))
        return float(reply["remaining"])

    async def inspect(self) -> Dict[str, Any]:
        return await self._call(request(None, "inspect"))

    async def graph(self, dot: bool = False) -> Dict[str, Any]:
        return await self._call(request(None, "graph", dot=dot))

    async def stats(self) -> Dict[str, Any]:
        return dict((await self._call(request(None, "stats")))["stats"])

    async def metrics(self) -> Dict[str, Any]:
        """The server's metrics registry: JSON snapshot, Prometheus
        text exposition and the telemetry enabled flag."""
        return await self._call(request(None, "metrics"))

    async def spans(
        self, limit: int = 0, annotations: bool = False
    ) -> Dict[str, Any]:
        """The server's request-lifecycle span log (``limit=0`` means
        all retained spans; ``annotations=True`` also lists the
        born-finished pass/resolution annotation spans)."""
        return await self._call(
            request(None, "spans", limit=limit, annotations=annotations)
        )

    async def dump(self) -> Dict[str, Any]:
        return await self._call(request(None, "dump"))

    async def log(self, limit: int = 100) -> Dict[str, Any]:
        return await self._call(request(None, "log", limit=limit))

    async def holding(self, tid: int) -> Dict[str, LockMode]:
        response = await self._call(request(None, "holding", tid=tid))
        return {
            rid: parse_mode(name)
            for rid, name in response["holding"].items()
        }

    async def deadlocked(self) -> bool:
        reply = await self._call(request(None, "deadlocked"))
        return bool(reply["deadlocked"])


class LockPipeline:
    """Collects sub-ops for one ``batch`` frame.

    Each builder method appends a sub-op and returns ``self`` so calls
    chain; :meth:`submit` sends everything in one frame, returns the
    per-op results and clears the builder for reuse.
    """

    def __init__(self, client: AsyncLockClient) -> None:
        self._client = client
        self._ops: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def begin(self, tid: Optional[int] = None) -> "LockPipeline":
        op: Dict[str, Any] = {"op": "begin"}
        if tid is not None:
            op["tid"] = tid
        self._ops.append(op)
        return self

    def lock(
        self, tid: int, rid: str, mode: "LockMode | str"
    ) -> "LockPipeline":
        self._ops.append({
            "op": "lock",
            "tid": tid,
            "rid": rid,
            "mode": mode.name if isinstance(mode, LockMode) else str(mode),
        })
        return self

    def commit(self, tid: int) -> "LockPipeline":
        self._ops.append({"op": "commit", "tid": tid})
        return self

    def abort(self, tid: int) -> "LockPipeline":
        self._ops.append({"op": "abort", "tid": tid})
        return self

    async def submit(self) -> List[Dict[str, Any]]:
        """Send the collected sub-ops as one frame; empty builder is a
        no-op returning ``[]``.  Clears the builder either way."""
        ops, self._ops = self._ops, []
        if not ops:
            return []
        return await self._client.batch(ops)


#: Slack added to the caller's lock timeout before the cross-thread wait
#: on the network future gives up — the server enforces the real timeout.
_NETWORK_SLACK = 30.0


class RemoteLockManager:
    """Blocking, thread-safe client mirroring ``ShardedLockManager``.

    ``acquire`` blocks the calling thread until the server grants the
    lock, the wait times out, or a detection pass on the server aborts
    the transaction (raising :class:`TransactionAborted`) — exactly the
    embedded facade's contract, so the simulator, the examples and
    application code can swap managers by swapping a factory.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        lease: float = 5.0,
        connect_timeout: float = 10.0,
        wire: "int | str" = "json",
        unix: Optional[str] = None,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-remote-lockmgr",
            daemon=True,
        )
        self._thread.start()
        self._closed = False
        try:
            self._client: AsyncLockClient = self._run(
                AsyncLockClient.connect(
                    host,
                    port,
                    lease=lease,
                    wire=wire,
                    unix=unix,
                    max_frame=max_frame,
                ),
                timeout=connect_timeout,
            )
        except BaseException:
            self._stop_loop()
            raise

    @property
    def wire(self) -> int:
        """The negotiated wire version (1 = JSON, 2 = binary)."""
        return self._client.wire

    def _run(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    # -- locking -----------------------------------------------------------

    def begin(self, tid: Optional[int] = None) -> int:
        return self._run(self._client.begin(tid))

    def acquire(
        self,
        tid: int,
        rid: str,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> bool:
        outer = None if timeout is None else timeout + _NETWORK_SLACK
        return self._run(
            self._client.acquire(tid, rid, mode, timeout=timeout), outer
        )

    def commit(self, tid: int) -> None:
        self._run(self._client.commit(tid))

    def abort(self, tid: int) -> None:
        self._run(self._client.abort(tid))

    def batch(self, ops: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Submit one pipelined ``batch`` frame (see
        :meth:`AsyncLockClient.batch`)."""
        return self._run(self._client.batch(ops))

    # -- detection ------------------------------------------------------------

    def detect(self) -> RemoteDetectionResult:
        return self._run(self._client.detect())

    # -- introspection ----------------------------------------------------------

    def holding(self, tid: int) -> Dict[str, LockMode]:
        return self._run(self._client.holding(tid))

    def deadlocked(self) -> bool:
        return self._run(self._client.deadlocked())

    def snapshot(self) -> list:
        """The server's lock table rendered in paper notation."""
        return self._run(self._client.dump())["text"].splitlines()

    def dump(self) -> Dict[str, Any]:
        """The server's full versioned lock-table snapshot."""
        return self._run(self._client.dump())

    def stats(self) -> Dict[str, Any]:
        return self._run(self._client.stats())

    def metrics(self) -> Dict[str, Any]:
        return self._run(self._client.metrics())

    def spans(self, limit: int = 0) -> Dict[str, Any]:
        return self._run(self._client.spans(limit=limit))

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach cleanly and stop the client thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._run(self._client.close(), timeout=5.0)
        except Exception:
            pass
        self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()

    def __enter__(self) -> "RemoteLockManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
