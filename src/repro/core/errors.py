"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch the whole family with one clause.  Errors that a
transaction-processing application is expected to handle as part of normal
operation (deadlock aborts) derive from :class:`TransactionAborted`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LockTableError(ReproError):
    """An operation was inconsistent with the lock-table state.

    Examples: releasing a lock the transaction does not hold, or a blocked
    transaction issuing a second request (the sequential transaction model
    of the paper allows at most one outstanding request per transaction).
    """


class UnknownResourceError(LockTableError):
    """A resource identifier is not present in the lock table."""


class TransactionStateError(ReproError):
    """A transaction was used in a state that forbids the operation.

    For example issuing requests after commit, or committing while
    blocked.
    """


class TransactionAborted(ReproError):
    """The transaction was aborted (victim of deadlock resolution).

    Attributes
    ----------
    tid:
        Identifier of the aborted transaction.
    reason:
        Human-readable reason, e.g. ``"deadlock victim"``.
    """

    def __init__(self, tid: int, reason: str = "deadlock victim") -> None:
        super().__init__("transaction {} aborted: {}".format(tid, reason))
        self.tid = tid
        self.reason = reason


class ProtocolViolation(ReproError):
    """A locking-protocol rule was violated.

    Raised by the strict-2PL enforcement (lock released before commit) and
    by the MGL protocol (locking a child without the required intention
    mode on its ancestors).
    """


class NotationError(ReproError):
    """The paper-notation parser met malformed input."""
