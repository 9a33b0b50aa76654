"""The cluster worker process entry point.

One worker = one :class:`~repro.service.server.LockServer` owning the
``crc32(rid) % N`` partition of the resource space.  Two things make a
worker different from a standalone server:

* **No detector of its own.**  ``period=None`` — a worker only ever
  sees its slice of the wait graph, so cross-process cycles are
  invisible to it.  The supervisor's coordinator runs the periodic
  pass over merged snapshots instead (see
  :mod:`repro.cluster.coordinator`); the worker's job is answering the
  ``snapshot`` and ``resolve`` ops.
* **A shared first-lock sequence.**  Resources entering any worker's
  table draw their sequence number from one cross-process counter
  (:func:`make_sequence_source` over a ``multiprocessing.Value``), so
  merged snapshots iterate in the *cluster-wide* first-lock order — the
  invariant the Section-5 walk needs and the equivalence oracle checks.

The function runs inside a ``multiprocessing.Process`` (spawn or fork);
it reports its bound address through the supervisor's ready queue (so
``port=0`` ephemeral binds work) and serves until terminated.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional


def make_sequence_source(counter) -> Callable[[], int]:
    """A process-safe first-lock sequence over a shared
    ``multiprocessing.Value('q')`` counter."""

    def next_sequence() -> int:
        with counter.get_lock():
            value = counter.value
            counter.value = value + 1
        return value

    return next_sequence


def worker_main(
    index: int,
    host: str,
    port: int,
    ready,
    sequence_counter=None,
    lease: float = 5.0,
    shards: int = 1,
    costs: Optional[Dict[int, float]] = None,
    journal_path: Optional[str] = None,
    policy: str = "periodic",
) -> None:
    """Run one worker server until the process is terminated.

    ``ready`` is a queue the worker reports ``(index, host, port)`` on
    once bound; ``sequence_counter`` is the shared first-lock counter
    (None runs a private counter — fine for a standalone server, wrong
    for a cluster).  ``shards`` splits the worker's slice into
    in-process shards.  ``policy`` is the detection policy *name* the
    supervisor runs cluster-wide — block-time policies (the nowait lane)
    act on each worker locally, so every worker must share it.
    ``journal_path`` makes the worker durable: it journals sessions
    and locks there, and — when the supervisor respawns it after a
    death — rebuilds its table slice from the same file (journaled
    ``lock`` records carry the cluster-wide sequence number, so the
    merged order survives the restart).
    """
    from ..core.victim import CostTable
    from ..service.server import LockServer

    source = (
        make_sequence_source(sequence_counter)
        if sequence_counter is not None
        else None
    )
    cost_table = CostTable(
        {int(tid): float(cost) for tid, cost in (costs or {}).items()}
    )
    server = LockServer(
        costs=cost_table,
        period=None,
        lease=lease,
        shards=shards,
        sequence_source=source,
        journal_path=journal_path,
        policy=policy,
    )

    async def run() -> None:
        await server.start(host, port)
        if ready is not None:
            ready.put((index, server.host, server.port))
        await server.serve_forever()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
