"""Event records emitted by the lock manager.

The scheduler and the deadlock detector are pure data-structure code; they
communicate outcomes to the transaction layer and to the simulator through
these small event objects instead of callbacks.  Every mutation of the
lock table that a transaction could observe (a request granted late, a
transaction chosen as deadlock victim, a queue repositioned by TDR-2)
is reported as an event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.modes import LockMode

#: Recent events a manager keeps (its ``log``).
EVENT_LOG_CAPACITY = 1024


class EventLog(deque):
    """A manager's event log: a ring of the last
    :data:`EVENT_LOG_CAPACITY` events plus ``total``, how many were ever
    published — memory flat in the transactions served.  A ``deque``, so
    publishing stays one C-level ``append``; the publisher adds to
    ``total`` itself, which is exact with one writer at a time (the
    service, the explorer, ``LockManager``).  Shards of a free-threaded
    ``ShardedLockManager`` publishing concurrently may undercount it."""

    def __init__(self) -> None:
        super().__init__(maxlen=EVENT_LOG_CAPACITY)
        self.total = 0


@dataclass(frozen=True)
class Granted:
    """A previously blocked request of ``tid`` on ``rid`` was granted.

    ``mode`` is the mode now held (for conversions, the converted target
    mode).  ``immediate`` is True when the grant happened at request time
    rather than by a later release/resolution sweep.
    """

    tid: int
    rid: str
    mode: LockMode
    immediate: bool = False


@dataclass(frozen=True)
class Blocked:
    """The request of ``tid`` on ``rid`` could not be granted.

    ``conversion`` tells whether the transaction waits inside the holder
    list (lock conversion) or in the FIFO queue.
    """

    tid: int
    rid: str
    mode: LockMode
    conversion: bool


@dataclass(frozen=True)
class Aborted:
    """``tid`` was aborted, e.g. as a deadlock victim."""

    tid: int
    reason: str


@dataclass(frozen=True)
class Repositioned:
    """TDR-2 reordered the queue of ``rid`` (deadlock resolved without
    aborting anyone).  ``delayed`` lists the transactions in ST whose
    requests were moved behind the AV prefix."""

    rid: str
    delayed: tuple
