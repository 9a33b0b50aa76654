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
from typing import List, Union

from ..core.modes import LockMode

#: Recent events a manager keeps (its ``log``).
EVENT_LOG_CAPACITY = 1024


class EventLog(deque):
    """A manager's event log: a ring of the last
    :data:`EVENT_LOG_CAPACITY` events plus ``total``, how many were ever
    published — memory flat in the transactions served.  A ``deque``, so
    publishing stays one C-level ``append``.  The publisher counts into
    ``counts`` — one slot per shard, each written under that shard's
    mutex only — and ``total`` sums them on read, so it is exact however
    many shards publish at once."""

    def __init__(self, parts: int = 1) -> None:
        super().__init__(maxlen=EVENT_LOG_CAPACITY)
        self.counts: List[int] = [0] * parts

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, slots=True)
class Granted:
    """A previously blocked request of ``tid`` on ``rid`` was granted.

    ``mode`` is the mode now held (for conversions, the converted target
    mode).  ``immediate`` is True when the grant happened at request time
    rather than by a later release/resolution sweep.
    """

    granted = True  # as a request's outcome
    tid: int
    rid: str
    mode: LockMode
    immediate: bool = False


@dataclass(frozen=True, slots=True)
class Blocked:
    """The request of ``tid`` on ``rid`` could not be granted.

    ``conversion`` tells whether the transaction waits inside the holder
    list (lock conversion) or in the FIFO queue.
    """

    granted = False
    tid: int
    rid: str
    mode: LockMode
    conversion: bool


#: What :func:`~repro.lockmgr.scheduler.request` answers: the request's
#: own event.  ``granted`` tells which; ``mode`` is the mode now held or
#: waited for (for conversions, the converted target mode).
RequestOutcome = Union[Granted, Blocked]


@dataclass(frozen=True, slots=True)
class Aborted:
    """``tid`` was aborted, e.g. as a deadlock victim."""

    tid: int
    reason: str


@dataclass(frozen=True, slots=True)
class Repositioned:
    """TDR-2 reordered the queue of ``rid`` (deadlock resolved without
    aborting anyone).  ``delayed`` lists the transactions in ST whose
    requests were moved behind the AV prefix."""

    rid: str
    delayed: tuple
