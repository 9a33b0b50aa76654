"""repro.service — the lock manager as a networked service.

Turns the in-process :class:`~repro.lockmgr.sharded.ShardedLockCore` into
infrastructure: an asyncio TCP server
(:class:`~repro.service.server.LockServer`) speaking a length-prefixed
JSON protocol (:mod:`repro.service.protocol`), with per-connection
sessions and leases so crashed clients cannot wedge the lock table, a
periodic-detector background task, and remote introspection
(:mod:`repro.service.admin`).  Clients come in two flavors:
:class:`~repro.service.client.AsyncLockClient` for asyncio code and the
blocking :class:`~repro.service.client.RemoteLockManager`, a drop-in
mirror of :class:`~repro.lockmgr.sharded.ShardedLockManager`.

    # server (or: python -m repro serve --port 7411)
    server = await serve(port=7411, period=0.5, lease=5.0)

    # client — identical code runs against ShardedLockManager
    with RemoteLockManager("127.0.0.1", 7411) as manager:
        manager.acquire(1, "R1", LockMode.X)
        manager.commit(1)
"""

#: Public name -> the submodule defining it; each submodule is imported
#: on first access (PEP 562), so a process pays only for what it uses —
#: a ``remote`` client never loads the server, core or journal.
_EXPORTS = {
    "AsyncLockClient": "client",
    "BINARY_CODEC": "wire",
    "EmbeddedLockManager": "loopback",
    "FrameTooLarge": "protocol",
    "JSON_CODEC": "wire",
    "LockServer": "server",
    "LoopbackServer": "loopback",
    "MAX_FRAME": "protocol",
    "ParkedWait": "core",
    "ProtocolError": "protocol",
    "RecoveryReport": "journal",
    "RemoteDetectionResult": "client",
    "RemoteLockManager": "client",
    "ServiceCore": "core",
    "ServiceError": "protocol",
    "ServiceStats": "admin",
    "Session": "core",
    "SessionJournal": "journal",
    "WIRE_BINARY": "wire",
    "WIRE_JSON": "wire",
    "WIRE_VERSION": "protocol",
    "codec_for": "wire",
    "negotiate": "wire",
    "recover_into": "journal",
    "render_stats": "admin",
    "resolve_wire": "wire",
    "serve": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)
        )
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value
