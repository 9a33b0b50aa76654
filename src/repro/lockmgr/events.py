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
from typing import List, NamedTuple, Union

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


def _same(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _event(cls):
    """Give a tuple-backed event value semantics of its own type: equal
    only to the same event type with equal fields (never to a bare
    tuple or another type's same fields), hashed to match.  The ring
    and every listener share these objects, so they stay immutable."""
    cls.__eq__ = _same
    cls.__ne__ = lambda self, other: not _same(self, other)
    cls.__hash__ = lambda self: hash((cls, tuple.__hash__(self)))
    return cls


@_event
class Granted(NamedTuple):
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


@_event
class Blocked(NamedTuple):
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


@_event
class Aborted(NamedTuple):
    """``tid`` was aborted, e.g. as a deadlock victim."""

    tid: int
    reason: str


@_event
class Repositioned(NamedTuple):
    """TDR-2 reordered the queue of ``rid`` (deadlock resolved without
    aborting anyone).  ``delayed`` lists the transactions in ST whose
    requests were moved behind the AV prefix."""

    rid: str
    delayed: tuple
