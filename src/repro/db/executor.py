"""A deterministic round-robin executor for scripted transactions.

Sequential transaction processing means every transaction is a sequence
of operations, blocked transactions stay put, and the system interleaves
the runnable ones.  The executor reproduces that faithfully and
deterministically (no threads): each scheduling step gives the next
runnable scripted transaction one operation; a blocked transaction
retries its pending operation once the scheduler wakes it; the periodic
deadlock detector runs every ``detect_every`` steps (or continuously, if
the database's lock core runs the continuous policy); deadlock victims
roll back and — optionally — restart from the top with a fresh
transaction id.

The executor is the one party that knows what a victim's abort would
waste, so it prices victims: before every pass it writes
``cost(handle, now)`` for each live script into the core's cost table
(a :mod:`repro.core.costs` function over the handle's ``locks_held``,
``start_time``, ``work_done`` and ``restarts``; ``now`` counts rounds).

Scripts are lists of small operation tuples::

    [("write", "accounts", "alice", 90),
     ("read", "accounts", "bob"),
     ("commit",)]

(the final commit is implied if missing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.costs import CostPolicy, unit_cost
from ..core.detection import DetectionResult
from ..core.errors import ReproError, TransactionAborted
from .database import Blocked, Database


class StallError(ReproError):
    """Every live transaction is blocked and no detector is configured
    to break the tie — the run cannot make progress."""


@dataclass
class ScriptedTransaction:
    """One submitted script and what only the executor knows: the tid of
    the current attempt, where the script stands, and the attempt's
    cost inputs.  Blocked, aborted and held state is the core's."""

    label: str
    script: List[Tuple]
    tid: Optional[int] = None
    position: int = 0
    results: List[Any] = field(default_factory=list)
    restarts: int = 0
    #: Work units and round the current attempt started in.
    work_done: float = 0.0
    start_time: float = 0.0
    #: The core's held-lock count, read each time the handle is priced.
    locks_held: int = 0
    committed: bool = False
    gave_up: bool = False

    @property
    def done(self) -> bool:
        return self.committed or self.gave_up


@dataclass
class ExecutorReport:
    """Outcome of an executor run."""

    steps: int = 0
    commits: int = 0
    aborts: int = 0
    restarts: int = 0
    detections: List[DetectionResult] = field(default_factory=list)
    deadlocks_resolved: int = 0
    abort_free_resolutions: int = 0


class Executor:
    """Round-robin driver over a :class:`~repro.db.database.Database`."""

    def __init__(
        self,
        db: Database,
        detect_every: Optional[int] = 10,
        restart_victims: bool = True,
        max_restarts: int = 25,
        max_steps: int = 100000,
        cost: CostPolicy = unit_cost,
    ) -> None:
        self.db = db
        self.cost = cost
        self.detect_every = detect_every
        self.restart_victims = restart_victims
        self.max_restarts = max_restarts
        self.max_steps = max_steps
        self._scripts: List[ScriptedTransaction] = []
        self._clock = 0.0

    def submit(
        self, script: Sequence[Tuple], label: Optional[str] = None
    ) -> ScriptedTransaction:
        """Queue a script for execution; returns its state handle."""
        ops = list(script)
        if not ops or ops[-1][0] != "commit":
            ops.append(("commit",))
        handle = ScriptedTransaction(
            label=label or "txn{}".format(len(self._scripts) + 1), script=ops
        )
        self._scripts.append(handle)
        return handle

    # -- main loop ------------------------------------------------------------

    def run(self) -> ExecutorReport:
        """Execute all submitted scripts to completion."""
        report = ExecutorReport()
        stalled = 0
        while not all(s.done for s in self._scripts):
            if report.steps >= self.max_steps:
                raise ReproError(
                    "executor exceeded {} steps".format(self.max_steps)
                )
            progressed = self._round(report)
            ran_detection = False
            if (
                self.detect_every is not None
                and report.steps
                and report.steps % self.detect_every == 0
            ):
                self._detect(report)
                ran_detection = True
            if progressed:
                stalled = 0
            else:
                # Everyone is blocked: force a detection pass now (a real
                # system would simply wait for the period to come around;
                # the executor has nothing else to do, so it jumps there).
                if not ran_detection:
                    if self.detect_every is None and not self.db.core.continuous:
                        raise StallError(
                            "all transactions blocked with detection disabled"
                        )
                    self._detect(report)
                stalled += 1
                if stalled >= 5:
                    raise StallError(
                        "no progress after repeated detection passes"
                    )
            self._clock += 1.0
        return report

    def _round(self, report: ExecutorReport) -> bool:
        """One round-robin pass; True if any transaction made progress."""
        progressed = False
        for handle in self._scripts:
            if handle.done:
                continue
            if handle.tid is not None and self.db.core.is_blocked(handle.tid):
                continue
            report.steps += 1
            progressed |= self._step(handle, report)
        return progressed

    def _step(self, handle: ScriptedTransaction, report: ExecutorReport) -> bool:
        core = self.db.core
        if handle.tid is not None and core.was_aborted(handle.tid):
            # A detector (periodic or continuous) chose this transaction
            # as victim while it sat blocked; account the abort and let
            # the script restart from the top — never resume mid-script
            # with a fresh transaction.
            self._handle_abort(handle, report)
            return True
        if handle.tid is None:
            handle.tid = self.db.begin()
            handle.start_time = self._clock
            handle.work_done = 0.0
        if core.continuous:
            self._price()  # this step's request may run a pass
        try:
            self._execute(handle, handle.script[handle.position])
        except Blocked:
            return False
        except TransactionAborted:
            self._handle_abort(handle, report)
            return True
        handle.position += 1
        if handle.position >= len(handle.script):
            handle.committed = True
            report.commits += 1
        return True

    def _execute(self, handle: ScriptedTransaction, op: Tuple) -> None:
        kind = op[0]
        tid = handle.tid
        if kind == "read":
            handle.results.append(self.db.read(tid, op[1], op[2]))
        elif kind == "write":
            self.db.write(tid, op[1], op[2], op[3])
        elif kind == "scan":
            handle.results.append(self.db.scan(tid, op[1]))
        elif kind == "scan_update":
            handle.results.append(self.db.scan_for_update(tid, op[1]))
        elif kind == "work":
            handle.work_done += op[1]
        elif kind == "commit":
            self.db.commit(tid)
        else:
            raise ReproError("unknown operation {!r}".format(kind))

    def _handle_abort(
        self, handle: ScriptedTransaction, report: ExecutorReport
    ) -> None:
        report.aborts += 1
        self.db.abort(handle.tid)
        restarts_left = (
            self.restart_victims and handle.restarts < self.max_restarts
        )
        if restarts_left:
            handle.restarts += 1
            report.restarts += 1
            handle.tid = None
            handle.position = 0
            handle.results.clear()
        else:
            handle.gave_up = True

    def _price(self) -> None:
        """Write every live script's cost into the core's cost table.
        A TDR-2 delay penalty the table accumulated is kept: a cost is
        only ever raised (``max(base, current)``)."""
        core = self.db.core
        table = core.costs
        for handle in self._scripts:
            tid = handle.tid
            if tid is None or handle.done:
                continue
            handle.locks_held = len(core.holding(tid))
            base = self.cost(handle, self._clock)
            if tid in table:
                base = max(base, table.cost(tid))
            table.set_cost(tid, base)

    def _detect(self, report: ExecutorReport) -> None:
        self._price()
        result = self.db.core.detect()
        report.detections.append(result)
        if result.deadlock_found:
            report.deadlocks_resolved += len(result.resolutions)
            if result.abort_free:
                report.abort_free_resolutions += 1
        core = self.db.core
        for handle in self._scripts:
            tid = handle.tid
            if tid is not None and not handle.done and core.was_aborted(tid):
                self._handle_abort(handle, report)

    # -- results ---------------------------------------------------------------

    def results(self) -> Dict[str, List[Any]]:
        return {handle.label: handle.results for handle in self._scripts}
