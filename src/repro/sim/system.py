"""The simulated transaction-processing system.

A closed system of ``terminals`` (ref. [3]'s model): each terminal runs
one transaction at a time against a shared lock core — the
:class:`~repro.lockmgr.sharded.ShardedLockCore` the service runs, at one
shard — thinks, then starts the next.  A deadlock-handling
:class:`~repro.policy.base.DetectionPolicy` (the paper's own or a
baseline's) decides at block time, on the clock tick and in the
periodic pass, which is the core's ``detect``; its victims are restarted
with the same program after a restart delay, like a real DBMS re-running
the application's transaction.  A policy's ``wait_limit`` is kept here,
by the terminals: a wait older than it aborts.

An optional ground-truth **oracle** (the full wait-for graph) watches
the lock table after every event and accumulates how long deadlocks
persist — that is the detection-latency measurement behind experiment
X1; schemes that look at reduced graphs (Agrawal) or long periods leave
cycles standing measurably longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.wfg import has_deadlock
from ..core.detection import DetectionResult
from ..core.victim import CostTable
from ..lockmgr.sharded import ShardedLockCore
from ..policy.base import DetectionPolicy
from .engine import Engine
from .metrics import Metrics
from .workload import Program, WorkloadGenerator, WorkloadSpec


@dataclass
class Terminal:
    """One closed-loop client."""

    index: int
    program: Optional[Program] = None
    step: int = 0
    tid: Optional[int] = None
    restarts: int = 0
    program_started_at: float = 0.0
    attempt_work: float = 0.0
    blocked_since: Optional[float] = None
    state: str = "thinking"  # thinking | running | blocked | aborted


class SimulatedSystem:
    """Drives terminals, lock core and policy through one run."""

    def __init__(
        self,
        spec: WorkloadSpec,
        policy: DetectionPolicy,
        terminals: int = 8,
        seed: int = 0,
        period: Optional[float] = 10.0,
        tick_interval: float = 1.0,
        oracle: bool = True,
        cost_policy=None,
    ) -> None:
        self.spec = spec
        self.period = period
        self.tick_interval = tick_interval
        self.oracle = oracle
        self.engine = Engine()
        self.costs = CostTable()
        self.core = ShardedLockCore(costs=self.costs, policy=policy)
        self.policy = self.core.policy
        self.table = self.core.table
        self.metrics = Metrics()
        self.generator = WorkloadGenerator(spec, seed=seed)
        self.terminals = [Terminal(index=i) for i in range(terminals)]
        self._by_tid: Dict[int, Terminal] = {}
        #: Blocked terminals by tid, in block order (the wait-limit
        #: clock's order).
        self._waiting: Dict[int, Terminal] = {}
        self._next_tid = 1
        self._deadlock_since: Optional[float] = None
        #: ``cost_policy(terminal, now) -> float`` — victim cost of a
        #: terminal's current transaction.  Default: accumulated work + 1
        #: (abort cost proportional to work that would be wasted).
        self._cost_policy = (
            cost_policy
            if cost_policy is not None
            else (lambda terminal, now: 1.0 + terminal.attempt_work)
        )

    def _refresh_cost(self, terminal: Terminal) -> None:
        if terminal.tid is not None:
            self.costs.set_cost(
                terminal.tid, self._cost_policy(terminal, self.engine.now)
            )

    # -- run --------------------------------------------------------------

    def run(self, duration: float = 1000.0) -> Metrics:
        """Simulate ``duration`` time units and return the metrics."""
        for terminal in self.terminals:
            self.engine.schedule(
                self.generator.think_time() * 0.1,
                lambda t=terminal: self._start_transaction(t),
            )
        if self.policy.wants_periodic and self.period is not None:
            self.engine.schedule(self._next_interval(), self._periodic)
        self.engine.schedule(self.tick_interval, self._tick)
        self.engine.run(until=duration)
        self._close_oracle_episode()
        self.metrics.duration = duration
        return self.metrics

    # -- terminal lifecycle ---------------------------------------------------

    def _start_transaction(self, terminal: Terminal) -> None:
        if terminal.program is None:
            terminal.program = self.generator.next_program()
            terminal.program_started_at = self.engine.now
            terminal.restarts = 0
        terminal.tid = self._next_tid
        self._next_tid += 1
        terminal.step = 0
        terminal.attempt_work = 0.0
        terminal.state = "running"
        self._by_tid[terminal.tid] = terminal
        self._refresh_cost(terminal)
        self._advance(terminal, terminal.tid)

    def _advance(self, terminal: Terminal, tid: int) -> None:
        """Issue the terminal's next access (or commit)."""
        if terminal.tid != tid or terminal.state not in ("running",):
            return  # stale event (the transaction restarted meanwhile)
        if terminal.step >= terminal.program.size:
            self._commit(terminal)
            return
        access = terminal.program.accesses[terminal.step]
        self.metrics.lock_requests += 1
        if self.core.lock(tid, access.rid, access.mode).granted:
            self._work_phase(terminal, access.work)
            return
        self._blocked(terminal, self.core.last_detection)

    def _work_phase(self, terminal: Terminal, work: float) -> None:
        tid = terminal.tid

        def finish() -> None:
            if terminal.tid != tid or terminal.state != "running":
                return
            terminal.attempt_work += work
            self._refresh_cost(terminal)
            terminal.step += 1
            self._advance(terminal, tid)

        self.engine.schedule(work, finish)

    def _blocked(
        self, terminal: Terminal, result: Optional[DetectionResult]
    ) -> None:
        terminal.state = "blocked"
        terminal.blocked_since = self.engine.now
        self._waiting[terminal.tid] = terminal
        self.metrics.block_events += 1
        if result is None:
            self._oracle_check()
            return
        # The policy's at-block hook ran inside ``lock``, before the
        # oracle looked: a cycle it resolved there stood for no time.
        if result.stats.cycles_found and self._deadlock_since is None:
            self._deadlock_since = self.engine.now
        self._apply(result)

    def _commit(self, terminal: Terminal) -> None:
        tid = terminal.tid
        grants = self.core.finish(tid)
        self._by_tid.pop(tid, None)
        self.metrics.commits += 1
        self.metrics.useful_work += terminal.attempt_work
        self.metrics.response_times.append(
            self.engine.now - terminal.program_started_at
        )
        terminal.program = None
        terminal.tid = None
        terminal.state = "thinking"
        self._wake(grants)
        self._oracle_check()
        self.engine.schedule(
            self.generator.think_time(),
            lambda: self._start_transaction(terminal),
        )

    # -- policy plumbing ------------------------------------------------------

    def _apply(self, result: DetectionResult) -> None:
        cycles = result.stats.cycles_found
        self.metrics.deadlocks_resolved += cycles
        if cycles and not result.aborted:
            self.metrics.abort_free_resolutions += 1
        self.metrics.repositions += len(result.repositions)
        kind = (
            "deadlock"
            if result.abort_reason == DetectionResult.abort_reason
            else "prevention"
        )
        for tid in result.aborted:
            self._abort(tid, kind)
        for event in result.grants:
            self._wake_tid(event.tid)
        self._oracle_check()

    def _abort(self, tid: int, kind: str) -> None:
        terminal = self._by_tid.pop(tid, None)
        self._waiting.pop(tid, None)
        # A policy's victim is released already; ``finish`` clears its
        # aborted mark (and frees a timed-out waiter).
        grants = self.core.finish(tid)
        if kind == "deadlock":
            self.metrics.deadlock_aborts += 1
        elif kind == "timeout":
            self.metrics.timeout_aborts += 1
        else:
            self.metrics.prevention_aborts += 1
        if terminal is not None:
            if terminal.blocked_since is not None:
                self.metrics.blocked_time += (
                    self.engine.now - terminal.blocked_since
                )
                terminal.blocked_since = None
            self.metrics.wasted_work += terminal.attempt_work
            self.metrics.restarts += 1
            terminal.restarts += 1
            terminal.tid = None
            terminal.state = "aborted"
            self.engine.schedule(
                self.generator.restart_delay(),
                lambda: self._start_transaction(terminal),
            )
        self._wake(grants)

    def _wake(self, grants) -> None:
        for event in grants:
            self._wake_tid(event.tid)

    def _wake_tid(self, tid: int) -> None:
        terminal = self._by_tid.get(tid)
        if terminal is None or terminal.state != "blocked":
            return
        if self.table.is_blocked(tid):
            return  # woken for one lock but blocked again elsewhere
        self._waiting.pop(tid, None)
        terminal.state = "running"
        if terminal.blocked_since is not None:
            self.metrics.blocked_time += (
                self.engine.now - terminal.blocked_since
            )
            terminal.blocked_since = None
        # Retry the pending access; the lock is held now so the request
        # resolves as an immediate (covered) grant.
        self._advance(terminal, tid)

    def _next_interval(self) -> float:
        """The wait before the next periodic pass — the policy may
        tune it (adaptive schemes); ``None`` falls back to the fixed
        configured period."""
        interval = self.policy.current_period(self.period)
        return self.period if interval is None else interval

    def _periodic(self) -> None:
        self.metrics.detection_passes += 1
        self._apply(self.core.detect())
        self._wake_granted_after_pass()
        self.engine.schedule(self._next_interval(), self._periodic)

    def _tick(self) -> None:
        result = self.policy.on_tick(self.core)
        if result is not None:
            self._apply(result)
        limit = self.policy.wait_limit
        if limit is not None:
            now = self.engine.now
            expired = [
                tid
                for tid, terminal in self._waiting.items()
                if now - terminal.blocked_since >= limit
            ]
            for tid in expired:
                self._abort(tid, kind="timeout")
        self._oracle_check()
        self.engine.schedule(self.tick_interval, self._tick)

    def _wake_granted_after_pass(self) -> None:
        """A periodic pass may have unblocked transactions that were not
        named in the outcome (Step-3 sweeps); wake any terminal whose
        transaction is no longer blocked in the table."""
        for terminal in self.terminals:
            if (
                terminal.state == "blocked"
                and terminal.tid is not None
                and not self.table.is_blocked(terminal.tid)
            ):
                self._wake_tid(terminal.tid)

    # -- oracle ---------------------------------------------------------------------

    def _oracle_check(self) -> None:
        if not self.oracle:
            return
        cyclic = has_deadlock(self.table)
        if cyclic and self._deadlock_since is None:
            self._deadlock_since = self.engine.now
        elif not cyclic and self._deadlock_since is not None:
            self.metrics.deadlock_episodes += 1
            self.metrics.deadlock_latency_total += (
                self.engine.now - self._deadlock_since
            )
            self._deadlock_since = None

    def _close_oracle_episode(self) -> None:
        if self._deadlock_since is not None:
            self.metrics.deadlock_episodes += 1
            self.metrics.deadlock_latency_total += (
                self.engine.now - self._deadlock_since
            )
            self._deadlock_since = None
