"""A recoverable database: the mini database plus write-ahead logging.

:class:`RecoverableDatabase` logs every state change through
:class:`~repro.db.wal.WriteAheadLog` at the correct points:

* table creation and initial rows as ``create``/``load`` records;
* ``begin`` on first write of a transaction (read-only transactions
  never touch the log);
* each write *after locking and before mutation* (the write-ahead rule,
  via the :meth:`Database._on_write` hook);
* ``commit`` **before** any lock is released — the durability point;
* ``abort`` after the rollback.

``simulate_crash()`` models losing all volatile state: it returns a
fresh :class:`RecoverableDatabase` rebuilt purely from the log by
redo/undo restart recovery — committed effects survive, in-flight
transactions vanish.  The log is keyed by tid, so a database opened on
an existing log hands out tids above every tid in it: a reused tid
would inherit a dead transaction's commit record.  Strict 2PL (enforced
by the lock manager) is what makes this sound: no transaction ever
reads or overwrites another's uncommitted data.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ..lockmgr.sharded import ShardedLockCore
from .database import Database
from .wal import WriteAheadLog, recover


class RecoverableDatabase(Database):
    """Database with write-ahead logging and restart recovery."""

    def __init__(
        self,
        name: str = "db",
        core: Optional[ShardedLockCore] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        super().__init__(name=name, core=core)
        self.wal = wal if wal is not None else WriteAheadLog()
        self._logged_begin: Set[int] = set()
        self._next_tid = 1 + max(
            (record.tid for record in self.wal.records()), default=0
        )

    # -- logging hooks -----------------------------------------------------

    def create_table(self, table, rows=None) -> None:
        super().create_table(table, rows)
        self.wal.log_create(table)
        for key, value in (rows or {}).items():
            self.wal.log_load(table, key, value)

    def _on_write(
        self, tid: int, table: str, key: Any, before: Any, existed: bool,
        value: Any,
    ) -> None:
        if tid not in self._logged_begin:
            self.wal.log_begin(tid)
            self._logged_begin.add(tid)
        self.wal.log_write(tid, table, key, before, value, existed)

    def _on_commit(self, tid: int) -> None:
        # Durability point: the commit record hits the log before any
        # lock is released.
        if tid in self._logged_begin:
            self.wal.log_commit(tid)
            self._logged_begin.discard(tid)

    def rollback(self, tid: int) -> None:
        super().rollback(tid)
        # Every abort rolls back first, deadlock victims included;
        # close the log history here.
        if tid in self._logged_begin:
            self.wal.log_abort(tid)
            self._logged_begin.discard(tid)

    # -- crash and restart ------------------------------------------------------

    def simulate_crash(self) -> "RecoverableDatabase":
        """Lose everything volatile; come back from the log alone.

        In-flight transactions are the losers — their effects are undone
        by recovery; everything committed is present in the restarted
        database.
        """
        recovered_tables = recover(self.wal)
        restarted = RecoverableDatabase(name=self.name, wal=self.wal)
        for table, rows in recovered_tables.items():
            restarted.create_table_silently(table, rows)
        return restarted

    def create_table_silently(
        self, table: str, rows: Dict[Any, Any]
    ) -> None:
        """Install recovered contents without re-logging them (used only
        by restart recovery; the log already describes this state)."""
        Database.create_table(self, table, rows)

    def recovered_contents(self) -> Dict[str, Dict[Any, Any]]:
        """What restart recovery would rebuild right now (non-mutating
        aside from recovery's loser-abort records)."""
        return recover(self.wal)
