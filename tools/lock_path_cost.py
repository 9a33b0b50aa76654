#!/usr/bin/env python
"""What one uncontended lock costs, counted — no clock anywhere.

Four deterministic figures, each taken after a warm-up so lazily
created series and codecs are out of the way:

* **calls** — Python-level and C-level calls (``sys.setprofile``) for one
  granted ``ServiceCore.lock_step`` + ``pump`` and for one
  ``finish_step`` + ``pump`` over eight sole-holder locks, telemetry on
  and off, with ``ShardedLockCore.lock``/``finish`` and bare
  ``scheduler.request``/``release_all`` beside them, and on
  ``shards=4`` a granted request (one ``detect_ballast`` ballast
  reader), a blocking request on a transaction's second shard and
  ``is_blocked`` (both read the core's wait index), and the network
  shell around the step on a JSON connection (:func:`shell_calls`):
  one granted ``lock`` frame through the server and one client
  ``acquire`` round trip, and the batch lane's transaction (a begin +
  eight-lock ``batch`` frame and its ``commit`` through a journaled
  server) and one client ``batch`` round trip;
* **objects** — gc-tracked objects retained per held lock (a transaction
  of :data:`HELD` S locks on fresh resources, counted by
  ``gc.get_objects()`` before and after, once the manager's event ring
  has wrapped — a cold ring keeps one more, the ``Granted`` event, until
  it has);
* **bytes** — ``tracemalloc`` bytes per reader, resource id included,
  for :data:`READERS` one-lock S-readers on ``ShardedLockCore(shards=4)``
  (the benchmark's ``detect_ballast`` table);
* **pass** — Python-level and C-level calls for one ``detect()`` over
  the benchmark's first planted round (``planted_round(5, 0)``: 38
  transactions, 8 deadlock cycles) on ``ShardedLockCore`` with
  ``shards=4`` (routed: staged on a merged copy, resolved on the live
  shards) and ``shards=1`` (in place), and on ``LocalCluster(2)`` (the
  coordinator's pass: ``snapshot`` payloads and ``resolve`` plans
  through the JSON wire codec).

Exits 1 when a figure is over its ratchet (:data:`CEILINGS`;
``tests/lockmgr/test_lock_path_cost.py`` asserts the same table in
tier-1).  ``--src`` measures another checkout, e.g. the parent commit.

Usage::

    python tools/lock_path_cost.py
    python tools/lock_path_cost.py --src ../parent/src
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Locks held while objects are counted, and readers while bytes are.
HELD = 512
READERS = 16384

#: The ratchet: figure name -> the most it may read.
CEILINGS = {
    # 27 and 58 (Python 3.11) while every lock event ran a chain of
    # Python calls into its span; now it is appended at C cost and
    # folded once per step.  17 / 16 and 51 / 49 while a grant went
    # through ``_request_new``/``admits``/``_publish`` and a release
    # evicted each sole holder through ``_evict``/``existing``/``drop``.
    "lock_step+pump py (telemetry on)": 13,
    "lock_step+pump py (telemetry off)": 12,
    # 17 / 15 while begin and finish called the journal hook unjournaled.
    "finish_step+pump x8 py (telemetry on)": 16,
    "finish_step+pump x8 py (telemetry off)": 14,
    # 13 / 14 / 10 and 43 / 36 before the same change.
    "ShardedLockCore.lock py": 9,
    "ShardedLockCore.lock py (shards=4)": 10,
    "scheduler.request py": 8,
    "ShardedLockCore.finish x8 py": 9,
    "scheduler.release_all x8 py": 4,
    # Read off the wait index: 18 and 7 while they scanned the shards
    # (then 14 for the lock, before the flat request path).
    "ShardedLockCore.lock py (shards=4, second shard)": 10,
    "ShardedLockCore.is_blocked py (shards=4)": 3,
    # Measured 861 / 554 / 2355 (Python 3.11), plus 5%; 997 / 654 /
    # 2517 while the queue was a property read.
    "detect planted round py (shards=4)": 904,
    "detect planted round py (shards=1)": 582,
    "detect planted round py (LocalCluster(2))": 2473,
    # Reads 4.0098 (Python 3.11): the core's 3, the open span, and a
    # few objects over the 512 locks that are no lock's own.
    "objects per held lock (ServiceCore, telemetry on)": 4.05,
    "objects per held lock (ShardedLockCore)": 3,
    "bytes per ballast reader (shards=4)": 650,
    # 51 and 24 while a frame went split -> decode -> json_decode ->
    # version check, _on_frame -> _dispatch -> handler, a reply through
    # ok() and a codec wrapper, and the client awaited a request
    # coroutine.
    "server lock frame py": 30,
    "client acquire round trip py": 16,
    # 233 while each lock sub-op went through ``_batch_one``, the field
    # helpers and ``_journal_op`` and answered with its event dict.  The
    # client made 27 on the longer reply too: the trim saves it bytes
    # (1 223 -> 434 JSON bytes on the benchmark's stream), not calls.
    "server batch txn py": 181,
    "client batch round trip py": 27,
}


def count_calls(step: Callable[[], object]) -> Tuple[int, int]:
    """``(python calls, C calls)`` made by ``step()`` — the profiler's
    ``call`` and ``c_call`` events; ``step`` itself is one of the calls,
    turning the profiler off is not."""
    counts = [0, 0]

    def profiler(frame, event, arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(profiler)
    try:
        step()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1] - 1


def retained_objects(hold: Callable[[int], object], count: int) -> float:
    """gc-tracked objects that ``hold(count)`` leaves alive, per lock."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        keep = hold(count)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del keep
    return (after - before) / count


def measure() -> Dict[str, object]:
    """Every figure, by the names :data:`CEILINGS` uses (call figures
    are ``(python, C)`` pairs)."""
    from repro.core.modes import LockMode
    from repro.lockmgr import scheduler
    from repro.lockmgr.events import EVENT_LOG_CAPACITY
    from repro.lockmgr.lock_table import LockTable
    from repro.lockmgr.sharded import ShardedLockCore
    from repro.obs.instrument import Telemetry
    from repro.service.core import ServiceCore

    S = LockMode.S
    figures: Dict[str, object] = {}

    def wrap_ring(lock, finish):
        for tid in range(1000, 1000 + EVENT_LOG_CAPACITY // 8 + 1):
            for k in range(8):
                lock(tid, "w{}".format(k))
            finish(tid)

    def service(enabled: bool):
        core = ServiceCore(
            policy="periodic", shards=1, telemetry=Telemetry(enabled=enabled)
        )
        session = core.open_session()
        for tid in (1, 2):  # warm-up: series created, caches filled
            core.begin_step(session, tid)
            for k in range(8):
                core.lock_step(session, tid, "w{}".format(k), S)
                core.pump()
            core.finish_step(session, tid, False)
            core.pump()
        return core, session

    for enabled in (True, False):
        label = "(telemetry {})".format("on" if enabled else "off")
        core, session = service(enabled)
        core.begin_step(session, 7)
        for k in range(7):
            core.lock_step(session, 7, "r{}".format(k), S)

        def lock_step():
            core.lock_step(session, 7, "r7", S)
            core.pump()

        def finish_step():
            core.finish_step(session, 7, False)
            core.pump()

        python, c = count_calls(lock_step)
        figures["lock_step+pump py " + label] = python
        figures["lock_step+pump C " + label] = c
        python, c = count_calls(finish_step)
        figures["finish_step+pump x8 py " + label] = python
        figures["finish_step+pump x8 C " + label] = c

    manager = ShardedLockCore(shards=1, policy="periodic")
    for k in range(8):
        manager.lock(1, "w{}".format(k), S)
    manager.finish(1)
    for k in range(7):
        manager.lock(7, "r{}".format(k), S)
    python, c = count_calls(lambda: manager.lock(7, "r7", S))
    figures["ShardedLockCore.lock py"] = python
    figures["ShardedLockCore.lock C"] = c
    python, c = count_calls(lambda: manager.finish(7))
    figures["ShardedLockCore.finish x8 py"] = python
    figures["ShardedLockCore.finish x8 C"] = c

    # A ballast reader: a granted S lock on a fresh resource of a
    # ``shards=4`` core, as ``detect_ballast`` loads 16384 of them.
    readers = ShardedLockCore(shards=4, policy="periodic")
    for k in range(8):
        readers.lock(k + 1, "b{}".format(k), S)
    python, c = count_calls(lambda: readers.lock(9, "b8", S))
    figures["ShardedLockCore.lock py (shards=4)"] = python
    figures["ShardedLockCore.lock C (shards=4)"] = c

    # The closing request of a planted two-cycle across shards: T1 holds
    # ``a``, T2 holds ``b`` and waits at ``a``; T1 asks for ``b``, a
    # request on its second shard that blocks.  The Axiom-1 check and
    # ``is_blocked`` read the wait index, no shard scan.
    X = LockMode.X
    routed = ShardedLockCore(shards=4, policy="periodic")
    a, b = "p0", next(
        rid for rid in map("p{}".format, range(1, 64))
        if routed.shard_index(rid) != routed.shard_index("p0")
    )
    for first, second in ((11, 12), (1, 2)):  # warm-up, then measured
        routed.lock(first, a, X)
        routed.lock(second, b, X)
        routed.lock(second, a, X)
        if first == 11:
            routed.lock(first, b, X)
            routed.finish(first)
            routed.finish(second)
    python, c = count_calls(lambda: routed.lock(1, b, X))
    figures["ShardedLockCore.lock py (shards=4, second shard)"] = python
    figures["ShardedLockCore.lock C (shards=4, second shard)"] = c
    python, c = count_calls(lambda: routed.is_blocked(1))
    figures["ShardedLockCore.is_blocked py (shards=4)"] = python
    figures["ShardedLockCore.is_blocked C (shards=4)"] = c

    table = LockTable()
    for k in range(7):
        scheduler.request(table, 7, "r{}".format(k), S)
    python, c = count_calls(lambda: scheduler.request(table, 7, "r7", S))
    figures["scheduler.request py"] = python
    figures["scheduler.request C"] = c
    python, c = count_calls(lambda: scheduler.release_all(table, 7))
    figures["scheduler.release_all x8 py"] = python
    figures["scheduler.release_all x8 C"] = c

    core, session = service(True)
    wrap_ring(
        lambda tid, rid: core.lock_step(session, tid, rid, S),
        lambda tid: core.finish_step(session, tid, False),
    )
    core.pump()  # folds the wrap's telemetry, as the server's pump does
    core.begin_step(session, 9)

    def hold_through_service(count: int):
        for k in range(count):
            core.lock_step(session, 9, "h{}".format(k), S)
            core.pump()
        return core

    figures["objects per held lock (ServiceCore, telemetry on)"] = (
        retained_objects(hold_through_service, HELD)
    )
    manager = ShardedLockCore(shards=1, policy="periodic")
    wrap_ring(lambda tid, rid: manager.lock(tid, rid, S), manager.finish)
    manager.lock(9, "w", S)

    def hold_in_manager(count: int):
        for k in range(count):
            manager.lock(9, "h{}".format(k), S)
        return manager

    figures["objects per held lock (ShardedLockCore)"] = retained_objects(
        hold_in_manager, HELD
    )

    ballast = ShardedLockCore(shards=4, policy="periodic")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(READERS):
            ballast.lock(index + 1, "b{}".format(index), S)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    figures["bytes per ballast reader (shards=4)"] = (after - before) / READERS

    figures.update(shell_calls())

    from bench.workloads import planted_round
    from repro.core.modes import parse_mode

    from repro.cluster import LocalCluster

    hosts = [
        (" (shards={})".format(shards),
         ShardedLockCore(shards=shards, policy="periodic"))
        for shards in (4, 1)
    ]
    hosts.append((" (LocalCluster(2))", LocalCluster(workers=2, wire="json")))
    for label, planted in hosts:
        for plant in planted_round(5, 0):
            for tid, rid, mode, _ in plant.requests:
                planted.lock(tid, rid, parse_mode(mode))
        python, c = count_calls(planted.detect)
        figures["detect planted round py" + label] = python
        figures["detect planted round C" + label] = c
    return figures


class _StubTransport:
    """A transport whose writes land in a list at C cost."""

    def __init__(self) -> None:
        self.written: List[bytes] = []
        self.write = self.written.append

    def take(self) -> bytes:
        data = b"".join(self.written)
        del self.written[:]
        return data


class _Shell:
    """One server and one client joined by stub transports on a JSON
    connection, no socket: a client call is driven by hand, its request
    flushed as the loop would, and the server settles where the loop
    would schedule it."""

    def __init__(self, loop, journal=None) -> None:
        from repro.service import AsyncLockClient
        from repro.service.journal import recover_into
        from repro.service.server import LockServer, ServerConnection

        # The default period: every step asks whether the table is
        # saturated.
        self.server = server = LockServer(policy="periodic", journal=journal)
        server._loop = loop  # what ``start`` installs, minus the listener
        server.core.clock = server.core.telemetry.clock = loop.time
        if journal is not None:
            recover_into(server.core, journal)  # as ``start`` attaches it
        self.connection = ServerConnection(server)
        self.client = AsyncLockClient()
        self.to_server, self.to_client = _StubTransport(), _StubTransport()
        self.connection.connection_made(self.to_server)

        async def attach():
            self.client.connection_made(self.to_client)

        loop.run_until_complete(attach())
        self.round_trip(self.client._handshake("hello", {}))

    def send(self, call) -> bytes:
        """Start a client call; the request bytes it sent."""
        waiting = call.send(None)  # parked on its reply future
        assert not waiting.done()
        self.client._flush()
        return self.to_client.take()

    def serve(self, frame: bytes) -> None:
        self.connection.data_received(frame)
        self.server._settle()

    def answer(self, call):
        """Deliver the server's replies and finish the call."""
        self.client.data_received(self.to_server.take())
        try:
            call.send(None)
        except StopIteration as done:
            return done.value
        raise AssertionError("the call did not complete")

    def round_trip(self, call):
        self.serve(self.send(call))
        return self.answer(call)


def _batch_ops(tid: int, prefix: str) -> List[Dict[str, object]]:
    """The benchmark's batch frame: a begin and eight S locks."""
    ops: List[Dict[str, object]] = [{"op": "begin", "tid": tid}]
    ops.extend(
        {"op": "lock", "tid": tid, "rid": "{}{}".format(prefix, k),
         "mode": "S"}
        for k in range(8)
    )
    return ops


def shell_calls() -> Dict[str, object]:
    """Calls around the core step on both ends of a JSON connection:
    one granted ``lock`` frame through ``ServerConnection.data_received``
    and the ``LockServer._settle`` it schedules, and one
    ``AsyncLockClient.acquire`` from its call through its reply's
    ``data_received``; then the batch lane's transaction, a
    :func:`_batch_ops` frame and its ``commit`` through the server on a
    file-backed journal (``fsync="never"``, in a temp dir), and one
    ``AsyncLockClient.batch`` round trip of that frame."""
    import asyncio
    import shutil
    import tempfile

    from repro.service.journal import SessionJournal
    from repro.service.protocol import encode_frame, ok, request

    loop = asyncio.new_event_loop()
    shell = _Shell(loop)
    client = shell.client
    # Warm-up, and the measured frames stay off the 1-in-64 wire sample.
    for tid, locks in ((1, 8), (7, 7)):
        shell.round_trip(client.begin(tid))
        for k in range(locks):
            assert shell.round_trip(client.acquire(tid, "r{}".format(k), "S"))
        if tid == 1:
            shell.round_trip(client.commit(tid))
    figures: Dict[str, object] = {}
    call = client.acquire(7, "r7", "S")
    frame = shell.send(call)
    python, c = count_calls(partial(shell.serve, frame))
    figures["server lock frame py"] = python
    figures["server lock frame C"] = c
    assert shell.answer(call)

    reply = encode_frame(
        dict(ok(client._next_id, status="granted"), epoch=0)
    )

    def acquire():
        call = client.acquire(7, "r8", "S")
        call.send(None)
        client._flush()
        client.data_received(reply)
        try:
            call.send(None)
        except StopIteration as done:
            return done.value

    python, c = count_calls(acquire)
    assert shell.to_client.take()
    figures["client acquire round trip py"] = python
    figures["client acquire round trip C"] = c

    scratch = tempfile.mkdtemp(prefix="lock-path-cost-")
    journal = SessionJournal(
        os.path.join(scratch, "sessions.jsonl"), fsync="never"
    )
    try:
        shell = _Shell(loop, journal)
        client = shell.client
        for tid in (1, 2):  # warm-up
            shell.round_trip(client.batch(_batch_ops(tid, "w")))
            shell.round_trip(client.commit(tid))
        call = client.batch(_batch_ops(3, "r"))
        batch = shell.send(call)
        # The commit the client sends once the batch reply is in.
        commit = encode_frame(request(client._next_id, "commit", tid=3))

        def serve_transaction():
            shell.serve(batch)
            shell.serve(commit)

        python, c = count_calls(serve_transaction)
        figures["server batch txn py"] = python
        figures["server batch txn C"] = c
        results = shell.answer(call)
        assert [result["status"] for result in results[1:]] == (
            ["granted"] * 8
        )
        assert len(shell.server.core.manager.table) == 0
        journal.close()
    finally:
        shutil.rmtree(scratch)

    results = [{"op": "begin", "ok": True, "tid": 5}]
    results.extend([{"op": "lock", "ok": True, "status": "granted"}] * 8)
    reply = encode_frame(dict(ok(client._next_id, results=results), epoch=0))

    def batch_round_trip():
        call = client.batch(_batch_ops(5, "b"))
        call.send(None)
        client._flush()
        client.data_received(reply)
        try:
            call.send(None)
        except StopIteration as done:
            return done.value

    python, c = count_calls(batch_round_trip)
    assert shell.to_client.take()
    figures["client batch round trip py"] = python
    figures["client batch round trip C"] = c
    loop.close()
    return figures


def over_ceiling(figures: Dict[str, object]) -> List[str]:
    """The names of the figures that read over their ratchet."""
    return [
        name for name, ceiling in CEILINGS.items() if figures[name] > ceiling
    ]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    src = SRC
    if argv[:1] == ["--src"] and len(argv) == 2:
        src, argv = os.path.abspath(argv[1]), []
    if argv:
        print(__doc__.strip().split("Usage::")[1], file=sys.stderr)
        return 2
    for path in (src, REPO_ROOT):  # the package, and ``bench`` for the plants
        if path not in sys.path:
            sys.path.insert(0, path)
    figures = measure()
    print("{:<52}{:>10}{:>10}".format("figure", "value", "ceiling"))
    for name, value in figures.items():
        shown = "{:.1f}".format(value) if isinstance(value, float) else value
        print("{:<52}{:>10}{:>10}".format(
            name, shown, CEILINGS.get(name, "")
        ))
    over = over_ceiling(figures)
    if over:
        print("OVER THE RATCHET: " + "; ".join(over), file=sys.stderr)
        return 1
    print("lock path cost within its ratchet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
