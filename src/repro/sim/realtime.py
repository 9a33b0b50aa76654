"""A real-time closed-loop harness over any *blocking* lock manager.

The discrete-event simulator (:mod:`repro.sim.engine`) owns its own
clock; this harness instead drives real worker threads against a real
manager — any :class:`~repro.lockmgr.contract.BlockingLockManager`
(``acquire(tid, rid, mode, timeout)`` / ``commit`` / ``abort`` raising
:class:`~repro.core.errors.TransactionAborted` on victimization).  The
manager arrives through a *factory*, so the identical workload runs
against the embedded thread-safe manager or a
:class:`~repro.service.client.RemoteLockManager` pointed at a lock
server across the network — the apples-to-apples loop the service
benchmark needs.

Each worker runs ``txns`` transaction programs back to back (no think
time — a saturation load); a deadlock victim restarts its program under
a fresh transaction id, exactly like the simulator's restart semantics.
Deadlock resolution is the *manager's* job: hand the factory a manager
with a continuous or periodic detector.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.errors import TransactionAborted
from ..lockmgr.contract import BlockingLockManager
from .workload import WorkloadGenerator, WorkloadSpec


@dataclass
class RealtimeMetrics:
    """What a closed-loop run measured (wall-clock, not virtual time)."""

    commits: int = 0
    restarts: int = 0
    wait_timeouts: int = 0
    lock_calls: int = 0
    wall_time: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Committed transactions per wall-clock second."""
        return self.commits / self.wall_time if self.wall_time else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "commits": self.commits,
            "restarts": self.restarts,
            "wait_timeouts": self.wait_timeouts,
            "lock_calls": self.lock_calls,
            "wall_time": round(self.wall_time, 3),
            "throughput": round(self.throughput, 1),
        }


def run_realtime(
    manager_factory: Callable[[], BlockingLockManager],
    spec: Optional[WorkloadSpec] = None,
    workers: int = 4,
    txns_per_worker: int = 5,
    seed: int = 0,
    lock_timeout: float = 0.5,
    max_restarts: int = 100,
    registry=None,
) -> RealtimeMetrics:
    """Drive ``workers`` threads of generated transactions through one
    manager built by ``manager_factory``; returns the metrics.

    The factory is called once and the instance shared — both
    ``ShardedLockManager`` and ``RemoteLockManager`` are thread-safe.
    It is closed before returning.

    With a :class:`~repro.obs.metrics.MetricsRegistry` passed as
    ``registry``, every ``acquire`` is timed into the client-side
    histogram ``repro_client_acquire_seconds`` (labelled by mode and
    outcome) and the run's counters are mirrored under
    ``repro_client_*_total``.
    """
    spec = spec or WorkloadSpec()
    metrics = RealtimeMetrics()
    metrics_lock = threading.Lock()
    tids = itertools.count(1)
    manager = manager_factory()

    def observe_acquire(mode, outcome: str, elapsed: float) -> None:
        if registry is None:
            return
        registry.histogram(
            "repro_client_acquire_seconds",
            labels={"mode": mode.name, "outcome": outcome},
            help="client-observed acquire latency",
        ).observe(elapsed)

    def timed_acquire(tid: int, access) -> bool:
        started = time.perf_counter()
        try:
            granted = manager.acquire(
                tid, access.rid, access.mode, timeout=lock_timeout
            )
        except TransactionAborted:
            observe_acquire(
                access.mode, "aborted", time.perf_counter() - started
            )
            raise
        observe_acquire(
            access.mode,
            "granted" if granted else "timeout",
            time.perf_counter() - started,
        )
        return granted

    def run_program(program) -> None:
        for attempt in range(max_restarts):
            tid = next(tids)
            try:
                for access in program.accesses:
                    while True:
                        with metrics_lock:
                            metrics.lock_calls += 1
                        if timed_acquire(tid, access):
                            break
                        with metrics_lock:
                            metrics.wait_timeouts += 1
                manager.commit(tid)
            except TransactionAborted:
                with metrics_lock:
                    metrics.restarts += 1
                continue  # re-run the same program, fresh tid
            with metrics_lock:
                metrics.commits += 1
            return
        raise RuntimeError(
            "transaction program still aborting after {} "
            "restarts".format(max_restarts)
        )

    def worker(index: int) -> None:
        generator = WorkloadGenerator(spec, seed=seed + index)
        try:
            for _ in range(txns_per_worker):
                run_program(generator.next_program())
        except Exception as exc:  # surfaced to the caller
            with metrics_lock:
                metrics.errors.append(repr(exc))

    threads = [
        threading.Thread(
            target=worker, args=(index,), name="realtime-{}".format(index)
        )
        for index in range(workers)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    metrics.wall_time = time.monotonic() - started
    manager.close()
    if registry is not None:
        for name, value in (
            ("commits", metrics.commits),
            ("restarts", metrics.restarts),
            ("wait_timeouts", metrics.wait_timeouts),
            ("lock_calls", metrics.lock_calls),
        ):
            registry.counter(
                "repro_client_{}_total".format(name),
                help="closed-loop client counter: " + name,
            ).inc(value)
    if metrics.errors:
        raise RuntimeError(
            "realtime workers failed: {}".format("; ".join(metrics.errors))
        )
    return metrics
