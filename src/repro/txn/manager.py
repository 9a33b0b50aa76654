"""TransactionManager — transaction lifecycle over the lock manager.

Ties the pieces together for applications:

* ``begin()`` hands out :class:`Transaction` objects with fresh ids;
* ``lock()`` issues requests under the sequential model (one outstanding
  request per transaction) and keeps transaction states in sync with the
  scheduler's grant/block events;
* ``commit()``/``abort()`` end a transaction, releasing all its locks
  (strict 2PL) and waking whoever the release sweep granted;
* ``run_detection()`` refreshes victim costs from the configured cost
  policy and runs one periodic detection-resolution pass, translating
  detector decisions back into transaction aborts and wake-ups.

With ``policy="continuous"`` the underlying lock manager performs a
rooted deadlock check on every block instead (the companion
algorithm); the manager then folds each check's outcome in right away.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.detection import DetectionResult
from ..core.errors import (
    TransactionAborted,
    UnknownTransactionError,
)
from ..core.modes import LockMode
from ..lockmgr.sharded import ShardedLockCore
from . import costs as cost_policies
from .costs import CostPolicy
from .transaction import Transaction, TxnState


class TransactionManager:
    """Lifecycle manager for sequential transactions under strict 2PL."""

    def __init__(
        self,
        lock_manager: Optional[ShardedLockCore] = None,
        cost_policy: Optional[CostPolicy] = None,
        policy: str = "periodic",
    ) -> None:
        self.locks = (
            lock_manager
            if lock_manager is not None
            else ShardedLockCore(policy=policy)
        )
        self.cost_policy = (
            cost_policy if cost_policy is not None else cost_policies.unit_cost
        )
        self._transactions: Dict[int, Transaction] = {}
        self._next_tid = 1
        self._clock = 0.0

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """The manager's logical clock (advanced by :meth:`tick` or by
        the simulator driving it)."""
        return self._clock

    def tick(self, delta: float = 1.0) -> float:
        self._clock += delta
        return self._clock

    # -- lifecycle ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a new transaction."""
        txn = Transaction(tid=self._next_tid, start_time=self._clock)
        self._next_tid += 1
        self._transactions[txn.tid] = txn
        return txn

    def transaction(self, tid: int) -> Transaction:
        try:
            return self._transactions[tid]
        except KeyError:
            raise UnknownTransactionError(tid) from None

    def active_transactions(self) -> List[Transaction]:
        return [
            txn for txn in self._transactions.values() if not txn.finished
        ]

    # -- locking ---------------------------------------------------------------

    def lock(self, txn: Transaction, rid: str, mode: LockMode) -> bool:
        """Request ``mode`` on ``rid``.  Returns True when granted
        immediately; False when the transaction blocked.

        Raises :class:`TransactionAborted` if a continuous detection pass
        triggered by this very request chose the transaction as victim.
        """
        txn.require_active()
        if self.locks.was_aborted(txn.tid):  # pragma: no cover - defensive
            self._mark_aborted(txn, "deadlock victim")
            raise TransactionAborted(txn.tid)

        if self.locks.continuous:
            self.refresh_costs()
        outcome = self.locks.lock(txn.tid, rid, mode)
        if outcome.granted:
            txn.note_granted()
            return True

        txn.note_blocked(rid, outcome.mode)
        if self.locks.last_detection is not None:
            self._fold_in(self.locks.last_detection)
            if txn.state is TxnState.ABORTED:
                raise TransactionAborted(txn.tid)
        return txn.state is TxnState.ACTIVE

    def work(self, txn: Transaction, amount: float = 1.0) -> None:
        """Account CPU/IO work to the transaction (for cost policies)."""
        txn.work_done += amount

    def commit(self, txn: Transaction) -> List[Transaction]:
        """Commit ``txn``; returns the transactions its release woke."""
        txn.note_commit()
        return self._release_and_wake(txn)

    def abort(self, txn: Transaction, reason: str = "user abort") -> List[Transaction]:
        """Abort ``txn``; returns the transactions its release woke."""
        txn.note_abort(reason)
        return self._release_and_wake(txn)

    def _release_and_wake(self, txn: Transaction) -> List[Transaction]:
        grants = self.locks.finish(txn.tid)
        return [self._wake(event.tid) for event in grants]

    def _wake(self, tid: int) -> Transaction:
        woken = self.transaction(tid)
        woken.note_granted()
        return woken

    # -- deadlock handling ----------------------------------------------------------

    def refresh_costs(self) -> None:
        """Recompute every live transaction's victim cost from the cost
        policy.  TDR-2 delay penalties already accumulated in the cost
        table are preserved by only raising costs, never lowering them
        below the accumulated value."""
        table = self.locks.costs
        for txn in self.active_transactions():
            base = self.cost_policy(txn, self._clock)
            if txn.tid in table:
                table.set_cost(txn.tid, max(base, table.cost(txn.tid)))
            else:
                table.set_cost(txn.tid, base)

    def run_detection(self) -> DetectionResult:
        """One periodic detection-resolution pass (refreshing costs
        first).  Victim transactions transition to ABORTED; granted ones
        wake up."""
        self.refresh_costs()
        result = self.locks.detect()
        self._fold_in(result)
        return result

    def _fold_in(self, result: DetectionResult) -> None:
        for tid in result.aborted:
            txn = self._transactions.get(tid)
            if txn is not None and not txn.finished:
                self._mark_aborted(txn, "deadlock victim")
        for event in result.grants:
            txn = self._transactions.get(event.tid)
            if txn is not None and txn.is_blocked:
                txn.note_granted()

    def _mark_aborted(self, txn: Transaction, reason: str) -> None:
        txn.note_abort(reason)
        # The detector already removed the victim's locks; finish() keeps
        # the lock manager's aborted-set consistent and is a no-op on the
        # lock table.
        self.locks.finish(txn.tid)

    # -- introspection ------------------------------------------------------------------

    def deadlocked(self) -> bool:
        """Theorem 1 check on the live table."""
        return self.locks.deadlocked()

    def __str__(self) -> str:
        lines = [str(txn) for txn in self._transactions.values()]
        lines.append(str(self.locks))
        return "\n".join(lines)
