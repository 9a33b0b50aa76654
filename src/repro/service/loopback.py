"""An embedded lock server for tests, benchmarks and examples.

:class:`LoopbackServer` runs a :class:`~repro.service.server.LockServer`
on a private event loop in a daemon thread, binds to an ephemeral
loopback port (or a UNIX-domain socket with ``unix=...``) and exposes
``host``/``port`` once ready — the pattern every in-process consumer
needs: start, point clients at it, close.

    with LoopbackServer(period=0.05) as server:
        with RemoteLockManager(server.host, server.port) as manager:
            manager.acquire(1, "R", LockMode.X)

:class:`EmbeddedLockManager` is the zero-serialization fast path for
the embed case: it talks to the loopback server's core with structured
objects, one serialized core operation per call — no frames, no codec,
no socket — while keeping the session/lease/parked-wait semantics (and
the stats counters) a wire client would see.

    with LoopbackServer(period=0.05) as server:
        with EmbeddedLockManager(server) as manager:
            tid = manager.begin()
            manager.acquire(tid, "R", LockMode.X)
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.errors import TransactionAborted
from ..core.modes import LockMode, parse_mode
from .server import LockServer


class LoopbackServer:
    """Run a lock server on a background thread (see module docstring).

    ``unix`` binds a UNIX-domain socket instead of TCP.  Remaining
    keyword arguments are forwarded to
    :class:`~repro.service.server.LockServer`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        unix: Optional[str] = None,
        **server_kwargs,
    ) -> None:
        self._host_arg = host
        self._unix_arg = unix
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[LockServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.unix: Optional[str] = None

    def start(self) -> "LoopbackServer":
        """Start the server thread; returns once the socket is bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-lock-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._error is not None:
            raise self._error
        if self.port is None and self.unix is None:
            raise RuntimeError("lock server failed to start in time")
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # start() or close() re-raises it
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = LockServer(**self._server_kwargs)
        if self._unix_arg is not None:
            await self.server.start(unix=self._unix_arg)
            self.unix = self.server.unix
        else:
            await self.server.start(self._host_arg, 0)
            self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.aclose()

    def submit(self, fn, timeout: float = 10.0):
        """Run ``fn()`` on the server's loop thread from any thread and
        return its result.

        The sanctioned way for tests and tools to look at (or poke) the
        live server state: the callable runs as one serialized core
        operation, so e.g.
        ``submit(lambda: verify_table(server.server.manager.table))``
        observes a consistent snapshot.
        """
        if self._loop is None or self.server is None:
            raise RuntimeError("loopback server is not running")
        handle: "concurrent.futures.Future" = concurrent.futures.Future()

        def run() -> None:
            try:
                handle.set_result(self.server._submit(fn))
            except BaseException as exc:  # delivered to the caller
                handle.set_exception(exc)

        self._loop.call_soon_threadsafe(run)
        return handle.result(timeout=timeout)

    def close(self) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout=10.0)
        self._thread = None
        error, self._error = self._error, None
        if error is not None:
            # e.g. a background task of the server died of an exception
            raise error

    def __enter__(self) -> "LoopbackServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class EmbeddedLockManager:
    """Zero-serialization lock manager over a :class:`LoopbackServer`.

    Mirrors the blocking :class:`~repro.service.client.RemoteLockManager`
    surface (``begin``/``acquire``/``batch``/``commit``/``abort``/
    ``detect``/``holding``/``deadlocked``/``stats``), but every
    operation is a plain function run on the server's loop thread
    (:meth:`LoopbackServer.submit`): requests and results cross the
    thread boundary as the structured objects themselves.  This is the protocol-cost
    floor the wire codecs are measured against — same core, same
    session accounting, zero encode/decode bytes.

    Parked waits keep their wire semantics: a blocking ``acquire``
    registers a :class:`~repro.service.core.ParkedWait` whose callback
    (fired by the server's pump, on the server thread) releases the
    calling thread.
    """

    def __init__(
        self, server: LoopbackServer, lease: Optional[float] = None
    ) -> None:
        if server.server is None:
            raise RuntimeError("loopback server is not running")
        self._server = server
        self._core = server.server.core
        core = self._core
        # No transport handle: there is no connection to close when the
        # lease expires or the server shuts down.
        self._session = server.submit(lambda: core.open_session(lease))
        self._closed = False

    def _submit(self, fn, timeout: float = 30.0):
        if self._closed:
            raise RuntimeError("embedded manager is closed")
        return self._server.submit(fn, timeout=timeout)

    # -- locking -----------------------------------------------------------

    def begin(self, tid: Optional[int] = None) -> int:
        core, session = self._core, self._session
        return self._submit(lambda: self._step(core.begin_step, tid))

    def acquire(
        self,
        tid: int,
        rid: str,
        mode: "LockMode | str",
        timeout: Optional[float] = None,
        wait: bool = True,
    ) -> bool:
        """Acquire (or convert to) ``mode`` on ``rid`` for ``tid``.

        Same contract as the remote facade: True on grant, False on
        timeout or an immediate ``wait=False`` block (the request stays
        queued), :class:`TransactionAborted` when a detection pass
        chose ``tid`` as victim.
        """
        lock_mode = mode if isinstance(mode, LockMode) else parse_mode(mode)
        core = self._core
        done = threading.Event()
        box: Dict[str, str] = {}

        def resolved(status: str) -> None:
            box["status"] = status
            done.set()

        status, _event, parked = self._submit(
            lambda: self._step(
                core.lock_step,
                tid,
                rid,
                lock_mode,
                wait=wait,
                callback=resolved,
            )
        )
        if status == "parked":
            if done.wait(timeout):
                status = box["status"]
            else:
                status = self._submit(
                    lambda: core.cancel_wait(tid, parked)
                )
        if status == "granted":
            return True
        if status == "aborted":
            raise TransactionAborted(tid)
        return False  # blocked (wait=False) or timeout

    def commit(self, tid: int) -> None:
        core = self._core
        self._submit(lambda: self._step(core.finish_step, tid, False))

    def abort(self, tid: int) -> None:
        core = self._core
        self._submit(lambda: self._step(core.finish_step, tid, True))

    def batch(self, ops: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one op sequence through the core's batch engine — the
        same short-circuit/error envelope as a wire ``batch`` frame,
        minus the frame."""
        op_list = [dict(op) for op in ops]
        core = self._core
        return self._submit(lambda: self._step(core.batch_step, op_list))

    def run_transaction(
        self,
        tid: int,
        accesses: Iterable[Tuple[str, "LockMode | str"]],
        timeout: Optional[float] = None,
    ) -> bool:
        """Begin, acquire every lock, and commit — one structured op.

        The wire-free hot path: where the remote facade pays a batch
        round trip, waiting acquires and a commit round trip, this
        crosses the thread boundary **once** for an uncontended
        transaction.  The whole
        begin/lock*/commit sequence runs as a single plain function on
        the server's loop thread; no wire-shaped result dicts are built
        and no frame bytes exist anywhere.  Contended transactions fall
        back to waiting :meth:`acquire` calls for the blocked suffix —
        the same shape the remote client uses — then commit.

        Returns True when the transaction committed, False when a lock
        wait timed out (the transaction is left open, lock requests
        still queued, exactly like a timed-out :meth:`acquire`); raises
        :class:`TransactionAborted` when a detection pass chose ``tid``
        as victim.
        """
        pending = [
            (rid, mode if isinstance(mode, LockMode) else parse_mode(mode))
            for rid, mode in accesses
        ]
        core = self._core

        def txn() -> Tuple[str, int]:
            session = self._session
            core.touch_session(session)
            core.stats.requests += 1
            core.begin_step(session, tid)
            for index, (rid, mode) in enumerate(pending):
                status, _event, _parked = core.lock_step(
                    session, tid, rid, mode, wait=False
                )
                if status == "aborted":
                    return "aborted", index
                if status != "granted":
                    return "blocked", index
            core.finish_step(session, tid, False)
            return "committed", len(pending)

        status, index = self._submit(txn)
        if status == "committed":
            return True
        if status == "aborted":
            raise TransactionAborted(tid)
        # The blocked request is already queued; resume it as a waiting
        # acquire, finish the remaining lock set, then commit.
        for rid, mode in pending[index:]:
            if not self.acquire(tid, rid, mode, timeout=timeout):
                return False
        self.commit(tid)
        return True

    # -- detection ---------------------------------------------------------

    def detect(self):
        """Run one detection-resolution pass; returns the live
        :class:`~repro.core.detection.DetectionResult` (the embed case
        needs no wire mirror)."""
        core = self._core
        return self._submit(
            lambda: self._step(lambda session: core.detect_step())
        )

    # -- introspection -----------------------------------------------------

    def holding(self, tid: int) -> Dict[str, LockMode]:
        manager = self._core.manager
        return self._submit(lambda: dict(manager.holding(tid)))

    def deadlocked(self) -> bool:
        manager = self._core.manager
        return self._submit(manager.deadlocked)

    def stats(self) -> Dict[str, int]:
        core = self._core
        return self._submit(core.stats_payload)

    @property
    def wire(self) -> int:
        """The embed path has no wire at all."""
        return 0

    # -- internals ---------------------------------------------------------

    def _step(self, step, *args, **kwargs):
        """One core step under this facade's session: touch the lease
        and count the request exactly as a wire frame would."""
        core, session = self._core, self._session
        core.touch_session(session)
        core.stats.requests += 1
        return step(session, *args, **kwargs)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the session cleanly (idempotent)."""
        if self._closed:
            return
        core, session = self._core, self._session
        try:
            self._server.submit(lambda: core.close_session(session))
        except Exception:
            pass
        self._closed = True

    def __enter__(self) -> "EmbeddedLockManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
