"""A thread-safe, blocking front end over the lock manager.

The core library is deliberately single-threaded and deterministic; this
wrapper makes it usable from real threads: ``acquire`` *blocks the
calling thread* until the lock is granted, the wait times out, or a
deadlock detection pass aborts the caller (raising
:class:`~repro.core.errors.TransactionAborted`).

Since the sharding refactor this facade is the **1-shard special case**
of :class:`~repro.lockmgr.sharded.ShardedLockManager`: one mutex (the
single shard's) protects the lock table, one condition variable per
blocked transaction carries wake-ups, and an optional daemon thread
runs the periodic detector every ``period`` seconds.  With
``policy="continuous"`` detection instead happens inline on each block,
as in the companion algorithm.  Callers who want per-resource parallelism
construct ``ShardedLockManager(shards=N)`` directly.

Strict 2PL is preserved: threads release everything at once via
``commit``/``abort``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from ..core.victim import CostTable
from .sharded import ShardedLockCore, ShardedLockManager


class ConcurrentLockManager(ShardedLockManager):
    """Blocking, thread-safe lock acquisition with deadlock handling.

    ``wait_fn`` is the facade's single interleaving point: it is called
    as ``wait_fn(condition, timeout)`` with the mutex held and must
    behave like :meth:`threading.Condition.wait` (release the mutex
    while waiting, return False on timeout).  The default is exactly
    that; the deterministic schedule explorer (:mod:`repro.check`)
    injects a controlled wait to pin down wakeup/timeout races that
    wall-clock tests cannot reproduce reliably.
    """

    def __init__(
        self,
        costs: Optional[CostTable] = None,
        period: Optional[float] = None,
        wait_fn: Optional[
            Callable[[threading.Condition, Optional[float]], bool]
        ] = None,
        policy="periodic",
    ) -> None:
        super().__init__(
            shards=1,
            costs=costs,
            period=period,
            wait_fn=wait_fn,
            policy=policy,
        )

    # Compatibility aliases: tests (and facade subclasses) reach into
    # the pre-sharding attributes.

    @property
    def _manager(self) -> ShardedLockCore:
        """The single-shard core (the old embedded ``LockManager``)."""
        return self._core

    @property
    def _mutex(self):
        """The single shard's (re-entrant) mutex."""
        return self._core.shards[0].mutex

    @property
    def _wakeups(self) -> Dict[int, threading.Condition]:
        """The single shard's per-transaction wait conditions."""
        return self._core.shards[0].wakeups
