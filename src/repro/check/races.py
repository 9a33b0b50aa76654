"""Deterministic reproductions of blocking-facade races.

The blocking facade (a one-shard
:class:`~repro.lockmgr.sharded.ShardedLockManager`) has exactly one
interleaving point: the injected ``wait_fn`` called while a thread sits
on its condition variable.  This backend exploits that seam to replay,
on a *single* thread, the races that real threads only hit under
unlucky timing — the injected wait performs the competing action inline
(the mutex is already held, and the inner
:class:`~repro.lockmgr.sharded.ShardedLockCore` is plain
single-threaded code) and then returns whichever wait result the
scheduler decrees.

The marquee schedule is the **timeout/grant race**: the holder commits
(granting the waiter) at the same moment the waiter's wait times out.
``Condition.wait`` is entitled to report a timeout even though the
grant already landed, so an ``acquire`` that trusts the wait result
returns False while the lock table says the caller holds the lock —
a silent lock leak.  The fixed facade re-checks table state before
honouring the timeout; the ``race`` oracle here fails on any facade
that regresses.  The same structure covers the timeout/abort race (a
detection pass picks the waiter as victim while its timeout fires:
``acquire`` must raise, never return False).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import TransactionAborted
from ..core.modes import LockMode
from ..lockmgr.sharded import ShardedLockManager
from .lockstep import ScheduleResult
from .oracles import OracleFailure, OracleStats, check_state
from .schedule import VirtualScheduler


class RaceModel:
    """Explorable schedule space of facade wait/wakeup races."""

    backend = "races"

    def __init__(self, spurious_limit: int = 1) -> None:
        self.spurious_limit = spurious_limit

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        counters: Dict[str, int] = {
            "grants": 0, "timeouts": 0, "aborts": 0, "spurious": 0,
        }
        stats = OracleStats()
        result = ScheduleResult(ok=True, steps=0, counters=counters,
                                oracle_stats=stats)
        scenario = scheduler.choose(
            ["grant-race", "abort-race"], "scenario"
        )
        if scenario == "grant-race":
            failures = self._grant_race(scheduler, counters, stats)
        else:
            failures = self._abort_race(scheduler, counters, stats)
        result.steps = len(scheduler.trace)
        if failures:
            stats.failures += len(failures)
            result.ok = False
            result.failure = failures[0].located(
                result.steps, scenario
            )
        return result

    # -- scenarios ---------------------------------------------------------

    def _grant_race(
        self,
        scheduler: VirtualScheduler,
        counters: Dict[str, int],
        stats: OracleStats,
    ) -> List[OracleFailure]:
        """T1 holds r1; T2's timed acquire races T1's commit."""
        state = {"committed": False, "spurious": 0}
        facade: List[ShardedLockManager] = []

        def wait_fn(condition, timeout: Optional[float]) -> bool:
            events = ["timeout"]
            if not state["committed"]:
                events += ["commit-then-timeout", "commit-then-notify"]
            if state["spurious"] < self.spurious_limit:
                events.append("spurious-wakeup")
            event = scheduler.choose(events, "wait")
            if event.startswith("commit"):
                # The racing commit, exactly as another thread would run
                # it under the mutex we already hold.
                state["committed"] = True
                facade[0]._core.finish(1)
            if event == "spurious-wakeup":
                state["spurious"] += 1
            return event in ("commit-then-notify", "spurious-wakeup")

        manager = ShardedLockManager(wait_fn=wait_fn, policy="periodic")
        facade.append(manager)
        failures: List[OracleFailure] = []
        try:
            manager.acquire(1, "r1", LockMode.X)
            counters["grants"] += 1
            got = manager.acquire(2, "r1", LockMode.X, timeout=0.01)
            holds = "r1" in manager.holding(2)
            if state["committed"]:
                counters["grants"] += 1
                if not got:
                    failures.append(OracleFailure(
                        "race",
                        "holder committed during the wait but acquire "
                        "reported a timeout (lock leak: table says T2 "
                        "holds r1)" if holds else
                        "holder committed during the wait but acquire "
                        "reported a timeout",
                    ))
                elif not holds:
                    failures.append(OracleFailure(
                        "race",
                        "acquire returned True but T2 does not hold r1",
                    ))
            else:
                counters["timeouts"] += 1
                if got:
                    failures.append(OracleFailure(
                        "race",
                        "nothing was granted yet acquire returned True",
                    ))
                elif holds:
                    failures.append(OracleFailure(
                        "race",
                        "timed-out acquire left T2 holding r1",
                    ))
        except TransactionAborted:
            failures.append(OracleFailure(
                "race", "acquire raised TransactionAborted with no "
                "detection pass in the schedule",
            ))
        finally:
            manager.abort(2)
            manager.abort(1)
            manager.close()
        stats.state_checks += 1
        failures.extend(check_state(manager._core.table))
        return failures

    def _abort_race(
        self,
        scheduler: VirtualScheduler,
        counters: Dict[str, int],
        stats: OracleStats,
    ) -> List[OracleFailure]:
        """T1⇄T2 deadlock; a detection pass races T2's wait timeout."""
        state = {"detected": None, "spurious": 0}
        facade: List[ShardedLockManager] = []

        def wait_fn(condition, timeout: Optional[float]) -> bool:
            events = ["timeout"]
            if state["detected"] is None:
                events += ["detect-then-timeout", "detect-then-notify"]
            if state["spurious"] < self.spurious_limit:
                events.append("spurious-wakeup")
            event = scheduler.choose(events, "wait")
            if event.startswith("detect"):
                # The periodic pass, as the daemon thread would run it.
                state["detected"] = facade[0]._core.detect()
                counters["detects"] = counters.get("detects", 0) + 1
            if event == "spurious-wakeup":
                state["spurious"] += 1
            return event in ("detect-then-notify", "spurious-wakeup")

        manager = ShardedLockManager(wait_fn=wait_fn, policy="periodic")
        facade.append(manager)
        failures: List[OracleFailure] = []
        aborted = False
        got = None
        try:
            manager.acquire(1, "r1", LockMode.X)
            manager.acquire(2, "r2", LockMode.X)
            counters["grants"] += 2
            # T1's blocking request issued through the inner manager (a
            # real T1 thread would be parked in acquire right now).
            outcome = manager._core.lock(1, "r2", LockMode.X)
            if outcome.granted:
                return [OracleFailure(
                    "race", "setup broke: T1's request for r2 granted",
                )]
            # Now T2 requests r1, completing the cycle, with a timeout.
            got = manager.acquire(2, "r1", LockMode.X, timeout=0.01)
        except TransactionAborted:
            aborted = True
        detection = state["detected"]
        if detection is not None:
            if 2 in detection.aborted:
                counters["aborts"] += 1
                if not aborted:
                    failures.append(OracleFailure(
                        "race",
                        "T2 was the detection victim but acquire "
                        "returned {} instead of raising".format(got),
                    ))
            else:
                counters["grants"] += 1
                if aborted:
                    failures.append(OracleFailure(
                        "race",
                        "T1 was the victim yet T2's acquire raised",
                    ))
                elif not got:
                    failures.append(OracleFailure(
                        "race",
                        "T1's abort granted r1 to T2 during the wait "
                        "but acquire reported a timeout",
                    ))
        else:
            counters["timeouts"] += 1
            if aborted or got:
                failures.append(OracleFailure(
                    "race",
                    "no detection ran yet acquire did not time out "
                    "(aborted={}, got={})".format(aborted, got),
                ))
        try:
            manager.abort(2)
            manager.abort(1)
        finally:
            manager.close()
        stats.state_checks += 1
        failures.extend(check_state(manager._core.table))
        return failures
