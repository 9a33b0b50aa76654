"""repro.service — the lock manager as a networked service.

Turns the in-process :class:`~repro.lockmgr.manager.LockManager` into
infrastructure: an asyncio TCP server
(:class:`~repro.service.server.LockServer`) speaking a length-prefixed
JSON protocol (:mod:`repro.service.protocol`), with per-connection
sessions and leases so crashed clients cannot wedge the lock table, a
periodic-detector background task, and remote introspection
(:mod:`repro.service.admin`).  Clients come in two flavors:
:class:`~repro.service.client.AsyncLockClient` for asyncio code and the
blocking :class:`~repro.service.client.RemoteLockManager`, a drop-in
mirror of :class:`~repro.lockmgr.concurrent.ConcurrentLockManager`.

    # server (or: python -m repro serve --port 7411)
    server = await serve(port=7411, period=0.5, lease=5.0)

    # client — identical code runs against ConcurrentLockManager
    with RemoteLockManager("127.0.0.1", 7411) as manager:
        manager.acquire(1, "R1", LockMode.X)
        manager.commit(1)
"""

from .admin import ServiceStats, render_stats
from .client import AsyncLockClient, RemoteLockManager
from .core import ParkedWait, ServiceCore, Session
from .journal import RecoveryReport, SessionJournal, recover_into
from .loopback import EmbeddedLockManager, LoopbackServer
from .protocol import (
    MAX_FRAME,
    FrameTooLarge,
    ProtocolError,
    RemoteDetectionResult,
    ServiceError,
    WIRE_VERSION,
)
from .server import LockServer, serve
from .wire import (
    BINARY_CODEC,
    JSON_CODEC,
    WIRE_BINARY,
    WIRE_JSON,
    codec_for,
    negotiate,
    resolve_wire,
)

__all__ = [
    "AsyncLockClient",
    "BINARY_CODEC",
    "EmbeddedLockManager",
    "FrameTooLarge",
    "JSON_CODEC",
    "LockServer",
    "LoopbackServer",
    "MAX_FRAME",
    "ParkedWait",
    "ProtocolError",
    "RecoveryReport",
    "RemoteDetectionResult",
    "RemoteLockManager",
    "ServiceCore",
    "ServiceError",
    "ServiceStats",
    "Session",
    "SessionJournal",
    "WIRE_BINARY",
    "WIRE_JSON",
    "WIRE_VERSION",
    "codec_for",
    "negotiate",
    "recover_into",
    "render_stats",
    "resolve_wire",
    "serve",
]
