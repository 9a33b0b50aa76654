"""Cluster clients: route every resource to its owning worker.

* :class:`WireClusterTransport` — the coordinator's two wire rounds
  (``snapshot_all`` / ``resolve``) over one
  :class:`~repro.service.client.AsyncLockClient` per worker, on a
  private event-loop thread.  An unreachable worker answers ``None``
  (the pass continues on the reachable slice) instead of wedging the
  detector.
* :class:`ClusterLockManager` — the blocking facade mirroring
  :class:`~repro.service.client.RemoteLockManager`, but over N worker
  connections: ``acquire`` routes by ``crc32(rid) % N``, transactions
  are registered lazily on each worker they touch, ``commit``/``abort``
  fan out to the touched workers, and ``acquire_many`` pipelines each
  worker's sub-batch concurrently.  Transaction ids are allocated by
  worker 0 (every cluster client does the same, which keeps ids unique
  fleet-wide).

Failure model: a worker that dies mid-request fails *fast* — the
server-side half of that is the connection-lost sweep in
:class:`~repro.service.server.LockServer`; the client-side half here
converts the dropped connection into a structured
``ServiceError("worker-down", ...)`` and latches the worker as down so
in-flight traffic fails immediately instead of re-dialing a dead port.
The latch is not terminal: the next call against a latched worker
attempts one reconnect — resuming the journaled session by token when
the supervisor restarted the worker from its journal, falling back to a
fresh ``hello`` (dropping that worker's transaction registrations) —
and un-latches on success.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import TransactionAborted
from ..core.modes import LockMode
from ..core.victim import CostTable
from ..service.client import AsyncLockClient, _NETWORK_SLACK
from ..service.protocol import ServiceError
from ..service.wire import WIRE_BINARY
from .coordinator import ClusterDetection, run_cluster_pass, worker_of


class WireClusterTransport:
    """The coordinator transport over per-worker service connections.

    Thread-safe and synchronous (the supervisor's detector thread and
    ``ClusterLockManager.detect`` both call it from plain threads); all
    socket work happens on a private event loop.  Connections are
    dialed lazily and re-dialed after a failure, so a worker restarting
    behind the same address heals without a new transport.
    """

    def __init__(
        self,
        endpoints: List[Tuple[str, int]],
        lease: float = 30.0,
        connect_timeout: float = 5.0,
        call_timeout: float = 60.0,
        wire: "int | str" = WIRE_BINARY,
    ) -> None:
        self._endpoints = list(endpoints)
        self._lease = lease
        self._connect_timeout = connect_timeout
        self._call_timeout = call_timeout
        #: Requested framing for worker connections.  Snapshot and
        #: resolve payloads are the bulkiest frames in the system, so
        #: the coordinator asks for binary by default; a pre-v2 worker
        #: simply declines and the round stays on JSON.
        self._wire = wire
        self._clients: List[Optional[AsyncLockClient]] = [None] * len(
            self._endpoints
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-cluster-transport",
            daemon=True,
        )
        self._thread.start()

    def _run(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            self._call_timeout if timeout is None else timeout
        )

    async def _client(self, index: int) -> AsyncLockClient:
        client = self._clients[index]
        if client is not None:
            return client
        host, port = self._endpoints[index]
        client = await asyncio.wait_for(
            AsyncLockClient.connect(
                host, port, lease=self._lease, wire=self._wire
            ),
            self._connect_timeout,
        )
        self._clients[index] = client
        return client

    async def _drop(self, index: int) -> None:
        client = self._clients[index]
        self._clients[index] = None
        if client is not None:
            try:
                await client.disconnect()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    async def _snapshot_one(self, index: int) -> Optional[Dict[str, Any]]:
        try:
            client = await self._client(index)
            return await client.snapshot()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await self._drop(index)
            return None
        except ServiceError:
            return None

    def snapshot_all(self) -> List[Optional[Dict[str, Any]]]:
        async def gather() -> List[Optional[Dict[str, Any]]]:
            return list(
                await asyncio.gather(
                    *(
                        self._snapshot_one(index)
                        for index in range(len(self._endpoints))
                    )
                )
            )

        return self._run(gather())

    def resolve(
        self, index: int, plan: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        async def go() -> Optional[Dict[str, Any]]:
            try:
                client = await self._client(index)
                return await client.resolve(plan)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await self._drop(index)
                return None
            except ServiceError:
                return None

        return self._run(go())

    async def _metrics_one(self, index: int) -> Optional[Dict[str, Any]]:
        try:
            client = await self._client(index)
            payload = await client.metrics()
            return payload.get("metrics")
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await self._drop(index)
            return None
        except ServiceError:
            return None

    def metrics_all(self) -> List[Optional[Dict[str, Any]]]:
        """Index-aligned worker registry snapshots (``None`` = worker
        unreachable this scrape) — the aggregated metrics endpoint's
        poll round, mirroring :meth:`snapshot_all`."""
        async def gather() -> List[Optional[Dict[str, Any]]]:
            return list(
                await asyncio.gather(
                    *(
                        self._metrics_one(index)
                        for index in range(len(self._endpoints))
                    )
                )
            )

        return self._run(gather())

    def close(self) -> None:
        async def go() -> None:
            for index, client in enumerate(self._clients):
                self._clients[index] = None
                if client is not None:
                    try:
                        await asyncio.wait_for(client.close(), 2.0)
                    except Exception:
                        pass

        try:
            self._run(go(), timeout=10.0)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()


class ClusterLockManager:
    """Blocking, thread-safe client over a worker fleet.

    The ``ConcurrentLockManager`` surface (``acquire``/``commit``/
    ``abort``/``detect``/``holding``/``deadlocked``, context-manager
    lifetime), so the closed-loop harness and application code swap a
    cluster in by swapping a factory.  See the module docstring for
    routing and the failure model.
    """

    def __init__(
        self,
        endpoints: List[Tuple[str, int]],
        lease: float = 5.0,
        connect_timeout: float = 10.0,
        costs: Optional[Dict[int, float]] = None,
        wire: "int | str" = "json",
    ) -> None:
        if not endpoints:
            raise ValueError("a cluster client needs at least one endpoint")
        self._endpoints = [(host, int(port)) for host, port in endpoints]
        self._lease = lease
        self._connect_timeout = connect_timeout
        self._wire = wire
        self._costs = CostTable(dict(costs or {}))
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-cluster-lockmgr",
            daemon=True,
        )
        self._thread.start()
        self._closed = False
        self._mutex = threading.Lock()
        # Serializes recovery attempts so two threads hitting the same
        # latched worker do not both dial it (network I/O happens here,
        # never under ``_mutex``).
        self._reconnect_lock = threading.Lock()
        #: tid -> worker indexes the transaction is registered on.
        self._registered: Dict[int, Set[int]] = {}
        self._down: Set[int] = set()
        self._clients: List[Optional[AsyncLockClient]] = []
        try:
            self._clients = [
                self._run(
                    AsyncLockClient.connect(
                        host, port, lease=lease, wire=wire
                    ),
                    timeout=connect_timeout,
                )
                for host, port in self._endpoints
            ]
        except BaseException:
            self._shutdown()
            raise
        self._transport: Optional[WireClusterTransport] = None

    # -- plumbing --------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._endpoints)

    def worker_index(self, rid: str) -> int:
        return worker_of(rid, len(self._endpoints))

    def _run(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def _call(self, index: int, make, timeout: Optional[float] = None):
        """Run one worker call, converting a lost connection into a
        structured ``worker-down`` error and latching the worker.

        ``make`` is a *factory* ``client -> coroutine``, invoked only
        once the worker's connection is known good — a pre-built
        coroutine would be bound to whatever client object existed
        before recovery replaced it.  A call against a latched worker
        first attempts one reconnect (resuming the journaled session
        when the restarted worker honors it); success un-latches, and
        only a failed redial keeps answering ``worker-down`` fast.
        """
        with self._mutex:
            down = index in self._down
        if down:
            self._try_recover(index)
        client = self._clients[index]
        try:
            return self._run(make(client), timeout)
        except (ConnectionError, OSError) as exc:
            with self._mutex:
                self._down.add(index)
            raise ServiceError(
                "worker-down",
                "worker {} at {}:{} dropped the connection: {}".format(
                    index,
                    self._endpoints[index][0],
                    self._endpoints[index][1],
                    exc,
                ),
            ) from exc

    def _try_recover(self, index: int) -> None:
        """Un-latch ``index`` by reconnecting, or raise ``worker-down``.

        Resume-by-token first: a worker restarted from its journal still
        holds this client's session and registered transactions.  A
        fresh ``hello`` is the fallback — the old session (and with it
        every ``begin`` registration on that worker) is gone, so the
        per-transaction registration marks are dropped and the next
        operation re-registers.
        """
        with self._reconnect_lock:
            with self._mutex:
                if index not in self._down:
                    return  # another thread recovered it already
            old = self._clients[index]
            host, port = self._endpoints[index]
            client = None
            if old is not None and old.session and old.token:
                try:
                    client = self._run(
                        AsyncLockClient.resume(
                            host,
                            port,
                            old.session,
                            old.token,
                            wire=self._wire,
                        ),
                        timeout=self._connect_timeout,
                    )
                except Exception:
                    client = None
            if client is None:
                try:
                    client = self._run(
                        AsyncLockClient.connect(
                            host,
                            port,
                            lease=self._lease,
                            wire=self._wire,
                        ),
                        timeout=self._connect_timeout,
                    )
                except Exception as exc:
                    raise ServiceError(
                        "worker-down",
                        "worker {} at {}:{} is down "
                        "(reconnect failed: {})".format(index, host, port, exc),
                    ) from exc
                with self._mutex:
                    for workers in self._registered.values():
                        workers.discard(index)
            if old is not None:
                try:
                    self._run(old.disconnect(), timeout=2.0)
                except Exception:
                    pass
            self._clients[index] = client
            with self._mutex:
                self._down.discard(index)

    def _ensure_registered(self, tid: int, index: int) -> None:
        with self._mutex:
            workers = self._registered.setdefault(tid, set())
            if index in workers:
                return
        self._call(index, lambda client: client.begin(tid))
        with self._mutex:
            self._registered[tid].add(index)

    # -- the locking surface ---------------------------------------------

    def begin(self, tid: Optional[int] = None) -> int:
        """Register a transaction; fresh ids come from worker 0."""
        if tid is None:
            tid = self._call(0, lambda client: client.begin(None))
            with self._mutex:
                self._registered.setdefault(tid, set()).add(0)
            return tid
        with self._mutex:
            self._registered.setdefault(int(tid), set())
        return int(tid)

    def acquire(
        self,
        tid: int,
        rid: str,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> bool:
        index = self.worker_index(rid)
        self._ensure_registered(tid, index)
        outer = None if timeout is None else timeout + _NETWORK_SLACK
        return self._call(
            index,
            lambda client: client.acquire(tid, rid, mode, timeout=timeout),
            outer,
        )

    def acquire_many(
        self,
        tid: int,
        accesses: Iterable[Tuple[str, LockMode]],
        timeout: Optional[float] = None,
    ) -> bool:
        """Acquire a lock set, pipelining each worker's share into one
        ``batch`` frame, concurrently across workers; contended locks
        fall back to individual waiting ``acquire`` calls."""
        accesses = list(accesses)
        if not accesses:
            return True
        groups: Dict[int, List[Tuple[str, LockMode]]] = {}
        for rid, mode in accesses:
            groups.setdefault(self.worker_index(rid), []).append((rid, mode))
        for index in groups:
            self._ensure_registered(tid, index)

        async def fan_out() -> List[bool]:
            return list(
                await asyncio.gather(
                    *(
                        self._clients[index].acquire_many(
                            tid, group, timeout=timeout
                        )
                        for index, group in sorted(groups.items())
                    )
                )
            )

        outer = None
        if timeout is not None:
            outer = timeout * max(len(accesses), 1) + _NETWORK_SLACK
        try:
            results = self._run(fan_out(), outer)
        except (ConnectionError, OSError) as exc:
            with self._mutex:
                self._down.update(
                    index
                    for index in groups
                    if self._clients[index]._closed
                )
            raise ServiceError(
                "worker-down",
                "a worker dropped the connection mid-batch: {}".format(exc),
            ) from exc
        return all(results)

    def commit(self, tid: int) -> None:
        self._finish(tid, aborting=False)

    def abort(self, tid: int) -> None:
        self._finish(tid, aborting=True)

    def _finish(self, tid: int, aborting: bool) -> None:
        with self._mutex:
            workers = sorted(self._registered.pop(tid, ()))
        error: Optional[ServiceError] = None
        for index in workers:
            try:
                self._call(
                    index,
                    lambda client: (
                        client.abort(tid) if aborting else client.commit(tid)
                    ),
                )
            except ServiceError as exc:
                if exc.code != "worker-down":
                    raise
                error = exc  # keep releasing on the surviving workers
        if error is not None and not aborting:
            raise error

    # -- detection and introspection -------------------------------------

    def detect(self) -> ClusterDetection:
        """Run one coordinator pass from this client (for clusters
        driven without a supervisor detector thread)."""
        if self._transport is None:
            self._transport = WireClusterTransport(self._endpoints)
        return run_cluster_pass(
            self._transport, len(self._endpoints), self._costs
        )

    def holding(self, tid: int) -> Dict[str, LockMode]:
        with self._mutex:
            workers = sorted(self._registered.get(tid, ()))
        held: Dict[str, LockMode] = {}
        for index in workers:
            held.update(
                self._call(index, lambda client: client.holding(tid))
            )
        return held

    def deadlocked(self) -> bool:
        """True when the merged cluster-wide H/W-TWBG has a cycle."""
        from ..core.hw_twbg import build_graph
        from .coordinator import merge_snapshots

        if self._transport is None:
            self._transport = WireClusterTransport(self._endpoints)
        merged, _, _ = merge_snapshots(self._transport.snapshot_all())
        return build_graph(merged.snapshot()).has_cycle()

    def stats(self) -> List[Dict[str, Any]]:
        """Per-worker ``stats`` payloads, index-aligned; a down worker
        contributes ``None``."""
        rows: List[Optional[Dict[str, Any]]] = []
        for index in range(len(self._clients)):
            try:
                rows.append(
                    self._call(index, lambda client: client.stats())
                )
            except ServiceError:
                rows.append(None)
        return rows

    def down_workers(self) -> List[int]:
        with self._mutex:
            return sorted(self._down)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        for client in self._clients:
            if client is None:
                continue
            try:
                self._run(client.close(), timeout=5.0)
            except Exception:
                pass
        self._shutdown()

    def _shutdown(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()

    def __enter__(self) -> "ClusterLockManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
