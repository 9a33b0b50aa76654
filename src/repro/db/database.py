"""A small in-memory multi-granularity database.

This is the substrate the examples and integration tests run real
workloads on: named tables of key → value records, protected by the MGL
protocol over a ``database → table → record`` hierarchy, with strict 2PL
and undo logging so aborted transactions roll back.

Lock usage follows the classic granularity rules:

* ``read``   — ``IS`` intent down the path, ``S`` on the record;
* ``write``  — ``IX`` intent down the path, ``X`` on the record;
* ``scan``   — ``S`` on the whole table (implicitly read-locks every
  record);
* ``update_all`` — ``SIX`` on the table (scan while updating a few
  records with record-level ``X``).

Transactions are integer tids the database hands out; every lock goes
through one :class:`~repro.lockmgr.sharded.ShardedLockCore`, which is
also the only record of who is blocked, aborted or holding what.  Every
data operation returns normally when its locks were granted
immediately, and raises :class:`Blocked` when the transaction must wait —
callers (the executor, the examples) decide how to wait.  A transaction
aborted by the deadlock detector raises
:class:`~repro.core.errors.TransactionAborted` on its next operation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import (
    ReproError,
    TransactionAborted,
    TransactionStateError,
    UnknownResourceError,
)
from ..core.modes import LockMode
from ..lockmgr.sharded import ShardedLockCore
from ..mgl.hierarchy import ResourceHierarchy
from ..mgl.protocol import MGLProtocol


class Blocked(ReproError):
    """The operation's lock request blocked; retry once woken.

    Carries the blocking resource so drivers can report wait-for
    information.
    """

    def __init__(self, tid: int, rid: str) -> None:
        super().__init__("T{} blocked at {}".format(tid, rid))
        self.tid = tid
        self.rid = rid


class Database:
    """Tables, records, locks and undo — one object per simulated system."""

    def __init__(
        self,
        name: str = "db",
        core: Optional[ShardedLockCore] = None,
    ) -> None:
        self.name = name
        self.core = core if core is not None else ShardedLockCore()
        self.hierarchy = ResourceHierarchy()
        self.hierarchy.add(name)
        self.mgl = MGLProtocol(self.hierarchy, self.core)
        self._tables: Dict[str, Dict[Any, Any]] = {}
        self._undo: Dict[int, List[Tuple[str, Any, Any, bool]]] = {}
        #: Begun and not yet finished.
        self._live: Set[int] = set()
        self._next_tid = 1

    # -- schema ----------------------------------------------------------

    def create_table(
        self, table: str, rows: Optional[Dict[Any, Any]] = None
    ) -> None:
        """Create ``table`` (optionally pre-populated — initial rows are
        installed without locking; do this before starting transactions)."""
        if table in self._tables:
            raise ReproError("table {!r} already exists".format(table))
        self._tables[table] = dict(rows or {})
        self.hierarchy.add(self._table_rid(table), parent=self.name)
        for key in self._tables[table]:
            self.hierarchy.add(
                self._record_rid(table, key), parent=self._table_rid(table)
            )

    def _table_rid(self, table: str) -> str:
        return "{}.{}".format(self.name, table)

    def _record_rid(self, table: str, key: Any) -> str:
        return "{}.{}[{}]".format(self.name, table, key)

    def _table_data(self, table: str) -> Dict[Any, Any]:
        try:
            return self._tables[table]
        except KeyError:
            raise UnknownResourceError(table) from None

    # -- transactions -------------------------------------------------------

    def begin(self) -> int:
        """Start a transaction; returns its fresh tid."""
        tid = self._next_tid
        self._next_tid += 1
        self._live.add(tid)
        return tid

    def commit(self, tid: int) -> None:
        """Commit ``tid``: strict 2PL releases everything it holds."""
        self._require_running(tid)
        if self.core.is_blocked(tid):
            raise TransactionStateError(
                "transaction {} cannot commit while blocked".format(tid)
            )
        self._on_commit(tid)
        self._undo.pop(tid, None)
        self._live.discard(tid)
        self.core.finish(tid)

    def _on_commit(self, tid: int) -> None:
        """Hook invoked after the commit checks and before any lock is
        released — the durability point."""

    def abort(self, tid: int) -> None:
        """Roll ``tid`` back and release its locks (a no-op for a
        transaction that has already finished)."""
        self.rollback(tid)
        self._live.discard(tid)
        self.core.finish(tid)

    def rollback(self, tid: int) -> None:
        """Undo the writes of ``tid`` (the first half of :meth:`abort`,
        deadlock victims included)."""
        for rid_key, old_value, table, existed in reversed(
            self._undo.pop(tid, [])
        ):
            data = self._tables[table]
            if existed:
                data[rid_key] = old_value
            else:
                data.pop(rid_key, None)

    # -- data operations --------------------------------------------------------

    def read(self, tid: int, table: str, key: Any) -> Any:
        """Record-level read: IS intents + S on the record.

        A missing key is still locked (its resource is registered on
        demand), so a read of "nothing" cannot race a later insert.
        """
        data = self._table_data(table)
        rid = self._record_rid(table, key)
        if rid not in self.hierarchy:
            self.hierarchy.add(rid, parent=self._table_rid(table))
        self._acquire(tid, rid, LockMode.S)
        return data.get(key)

    def write(self, tid: int, table: str, key: Any, value: Any) -> None:
        """Record-level write: IX intents + X on the record."""
        data = self._table_data(table)
        rid = self._record_rid(table, key)
        if rid not in self.hierarchy:
            self.hierarchy.add(rid, parent=self._table_rid(table))
        self._acquire(tid, rid, LockMode.X)
        before, existed = data.get(key), key in data
        self._on_write(tid, table, key, before, existed, value)
        self._undo.setdefault(tid, []).append(
            (key, before, table, existed)
        )
        data[key] = value

    def _on_write(
        self, tid: int, table: str, key: Any, before: Any, existed: bool,
        value: Any,
    ) -> None:
        """Hook invoked after locking and before mutation — the
        write-ahead point (:class:`~repro.db.recovery.RecoverableDatabase`
        logs here)."""

    def scan(self, tid: int, table: str) -> Dict[Any, Any]:
        """Table scan: S on the table read-locks every record at once."""
        data = self._table_data(table)
        self._acquire(tid, self._table_rid(table), LockMode.S)
        return dict(data)

    def scan_for_update(self, tid: int, table: str) -> Dict[Any, Any]:
        """SIX on the table: scan now, record-level X writes afterwards."""
        data = self._table_data(table)
        self._acquire(tid, self._table_rid(table), LockMode.SIX)
        return dict(data)

    def keys(self, table: str) -> Iterable[Any]:
        """Unlocked key listing (schema inspection, not a data read)."""
        return list(self._table_data(table))

    # -- lock plumbing -----------------------------------------------------------

    def _require_running(self, tid: int) -> None:
        """Refuse a finished tid; end a deadlock victim and report it."""
        if tid not in self._live:
            raise TransactionStateError(
                "transaction {} has finished and cannot issue "
                "requests".format(tid)
            )
        if self.core.was_aborted(tid):
            # A detector pass already chose this transaction as victim.
            self.abort(tid)
            raise TransactionAborted(tid)

    def _acquire(self, tid: int, rid: str, mode: LockMode) -> None:
        self._require_running(tid)
        try:
            granted = self.mgl.lock(tid, rid, mode)
        except TransactionAborted:
            self.abort(tid)
            raise
        if not granted:
            raise Blocked(tid, self.core.blocked_at(tid) or rid)
