"""The manager contract: the two surfaces every lock-manager facade shares.

Declared once, satisfied structurally (no base classes, no adapters):

* :class:`LockCore` — the synchronous, non-blocking core a kernel or a
  model checker steps one call at a time: ``lock`` answers granted or
  blocked immediately, ``finish`` releases under strict 2PL, ``detect``
  is one periodic pass.  Satisfied by
  :class:`~repro.lockmgr.sharded.ShardedLockCore` (at any shard count)
  and :class:`~repro.cluster.local.LocalCluster` — the explorer's lockstep
  driver (:mod:`repro.check.lockstep`) and the core axis of the
  conformance suite are written against exactly this.
* :class:`BlockingLockManager` — the thread-facing surface
  ``sim.realtime`` and the threaded examples call polymorphically:
  ``acquire`` parks the caller until granted, timed out or victimized.
  Satisfied by :class:`~repro.lockmgr.sharded.ShardedLockManager`,
  :class:`~repro.service.client.RemoteLockManager` and
  :class:`~repro.service.loopback.EmbeddedLockManager`.

Both are the intersection that already exists; facade-specific extras
(``begin``/``batch`` on the service clients,
``snapshot_payload`` on the sharded core, …) stay outside the contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, runtime_checkable

from ..core.hw_twbg import HWTWBG
from ..core.modes import LockMode
from .events import Granted
from .scheduler import RequestOutcome


@runtime_checkable
class LockCore(Protocol):
    """A steppable strict-2PL lock core (see the module docstring)."""

    @property
    def table(self):
        """The whole RST as a :class:`~repro.lockmgr.lock_table.LockTable`
        -shaped view (live for one table, merged in first-lock order for
        a partitioned one) — what the state oracles read."""

    def lock(self, tid: int, rid: str, mode: LockMode) -> RequestOutcome:
        """Request (or convert to) ``mode``; never waits."""

    def finish(self, tid: int) -> List[Granted]:
        """End ``tid``: release everything, return the grants enabled."""

    def detect(self):
        """One periodic detection-resolution pass (Section 5)."""

    def blocked_at(self, tid: int) -> Optional[str]:
        """The resource ``tid`` waits at, or None (Axiom 1: at most one)."""

    def is_blocked(self, tid: int) -> bool: ...

    def was_aborted(self, tid: int) -> bool:
        """True from victimization until ``finish`` acknowledges it."""

    def holding(self, tid: int) -> Dict[str, LockMode]: ...

    def graph(self) -> HWTWBG: ...

    def deadlocked(self) -> bool:
        """Theorem 1: the H/W-TWBG has a cycle."""


@runtime_checkable
class BlockingLockManager(Protocol):
    """A blocking, thread-safe lock manager, usable as a context manager."""

    def acquire(
        self,
        tid: int,
        rid: str,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until granted (True) or ``timeout`` seconds passed
        (False; the request stays queued, a retry resumes it).  Raises
        :class:`~repro.core.errors.TransactionAborted` for a victim."""

    def commit(self, tid: int) -> None: ...

    def abort(self, tid: int) -> None: ...

    def detect(self):
        """Run one detection pass now."""

    def holding(self, tid: int) -> Dict[str, LockMode]: ...

    def deadlocked(self) -> bool: ...

    def close(self) -> None: ...

    def __enter__(self): ...

    def __exit__(self, *exc_info) -> None: ...
