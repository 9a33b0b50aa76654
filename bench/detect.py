"""``detect_ballast``: the detector path, in-process, no sockets.

The lock table holds 16384 idle *ballast* S-readers — uncontended
resources a pass has no reason to look at.  Each round plants 8 seeded
deadlocks (``workloads.planted_round``), times one ``detect()``,
verifies the outcome and lets the survivors commit, so the table is
ballast-only again.  Request-path layers do nothing here; what is
measured is how much a pass pays for table size rather than for the
waiting structure (the paper's bound is over the latter).

Two bindings of the same rounds:

1. ``ShardedLockCore(shards=4, policy="periodic")`` — what
   ``serve --shards 4`` runs.
2. ``LocalCluster(workers=2)`` — snapshot, serialize, merge, detect and
   routed resolve: what the cluster coordinator runs, minus sockets.

A *transaction* here is one planted program: its first request to its
commit, through the pass that unblocks it.  A victim restarts the same
program under a fresh tid, as in the service workloads.
"""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Optional, Set

from repro.cluster import LocalCluster
from repro.core.modes import LockMode, parse_mode
from repro.lockmgr.sharded import ShardedLockCore

from . import metrics, workloads
from .svc import require

BALLAST = 16384
#: Ballast load (the workload's set-up) is taken this many times.
SETUP_SAMPLES = 5
#: Reference units timed before and after each round and each load.
PACE_BURST = 10
#: A victim's restart runs under ``tid + RESTART_OFFSET`` — inside the
#: round's private range, above every planted tid.
RESTART_OFFSET = workloads.TIDS_PER_ROUND // 2


def sharded_core(shards: int) -> ShardedLockCore:
    return ShardedLockCore(shards=shards, policy="periodic")


def local_cluster() -> LocalCluster:
    return LocalCluster(workers=2, policy="periodic", wire="json")


def load_ballast(manager) -> float:
    """``BALLAST`` transactions each holding S on a private resource;
    returns the reference seconds it took (this thread's CPU time — the
    granted clock of a workload that never waits — times core speed)."""
    pace = metrics.Pace()
    pace.sample(PACE_BURST)
    started = thread_time()
    shared = LockMode.S
    for index in range(BALLAST):
        manager.lock(index + 1, "b{}".format(index), shared)
    seconds = thread_time() - started
    pace.sample(PACE_BURST)
    return seconds * pace.speed()


def build_with_ballast(factory: Callable[[], object]):
    """A loaded manager plus the load times of ``SETUP_SAMPLES`` builds
    (earlier builds are dropped before the next starts)."""
    samples: List[float] = []
    manager = None
    for _ in range(SETUP_SAMPLES):
        manager = None
        gc.collect()
        manager = factory()
        samples.append(load_ballast(manager))
    return manager, samples


@dataclass
class RoundOutcome:
    pass_ms: float
    aborted: Set[int]
    cycles: int
    tdr2: int
    #: begin-to-commit of every planted program, ms (restarts included).
    latencies_ms: List[float]
    #: Seconds spent planting, detecting and committing (checks excluded).
    busy_seconds: float
    #: The pass's ``DetectionStats``.
    stats: object
    #: Share of those seconds this thread had the core (its CPU time
    #: over the wall time; the workload never waits).
    granted: float = 1.0
    #: Speed of the core meanwhile, as a share of the reference core's.
    speed: float = 1.0


@dataclass
class Rounds:
    """Planted rounds run against one binding."""

    outcomes: List[RoundOutcome] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        return sum(outcome.busy_seconds for outcome in self.outcomes)

    @property
    def latencies_ms(self) -> List[float]:
        return [
            sample
            for outcome in self.outcomes
            for sample in outcome.latencies_ms
        ]

    @property
    def pass_ms(self) -> List[float]:
        return [outcome.pass_ms for outcome in self.outcomes]

    @property
    def aborted_sets(self) -> List[Set[int]]:
        return [outcome.aborted for outcome in self.outcomes]


def run_round(manager, seed: int, index: int) -> RoundOutcome:
    """Plant round ``index``, time one pass, check it, commit everyone.

    Returns with every planted transaction finished; time spent in the
    checks is excluded from the reported latencies."""
    pace = metrics.Pace()
    pace.sample(PACE_BURST)
    round_started = perf_counter()
    cpu_started = thread_time()
    plants = workloads.planted_round(seed, index)
    first_request: Dict[int, float] = {}
    program: Dict[int, list] = {}
    for plant in plants:
        for tid, rid, mode_name, granted in plant.requests:
            mode = parse_mode(mode_name)
            first_request.setdefault(tid, perf_counter())
            program.setdefault(tid, []).append((rid, mode))
            outcome = manager.lock(tid, rid, mode)
            require(
                outcome.granted == granted,
                "round {}: T{} on {} {} answered granted={}".format(
                    index, tid, rid, mode_name, outcome.granted
                ),
            )
    planted = set(first_request)

    started = perf_counter()
    result = manager.detect()
    pass_seconds = perf_counter() - started

    check_started = perf_counter()
    check_cpu_started = thread_time()
    aborted = set(result.aborted)
    require(
        len(result.resolutions) >= len(plants),
        "round {}: {} deadlocks planted, {} resolved".format(
            index, len(plants), len(result.resolutions)
        ),
    )
    require(
        aborted <= planted,
        "round {}: victims {} outside the planted transactions".format(
            index, sorted(aborted - planted)
        ),
    )
    require(
        not manager.deadlocked(),
        "round {}: a planted cycle survived the pass".format(index),
    )
    check_seconds = perf_counter() - check_started
    check_cpu_seconds = thread_time() - check_cpu_started

    # Survivors commit as their waits are granted; then each victim
    # drops its abort flag and re-runs its program under a fresh tid,
    # which nothing contends any more.
    latencies: List[float] = []

    def committed(tid: int) -> None:
        latencies.append(
            (perf_counter() - first_request[tid] - check_seconds) * 1000.0
        )

    pending = sorted(planted - aborted)
    while pending:
        waiting = [tid for tid in pending if manager.is_blocked(tid)]
        require(
            len(waiting) < len(pending),
            "round {}: transactions {} never unblocked".format(
                index, waiting
            ),
        )
        for tid in pending:
            if tid not in waiting:
                manager.finish(tid)
                committed(tid)
        pending = waiting
    for tid in sorted(aborted):
        require(manager.was_aborted(tid), "T{} lost its abort".format(tid))
        manager.finish(tid)
        fresh = tid + RESTART_OFFSET
        for rid, mode in program[tid]:
            require(
                manager.lock(fresh, rid, mode).granted,
                "round {}: restart of T{} blocked".format(index, tid),
            )
        manager.finish(fresh)
        committed(tid)
    tdr2 = sum(
        1
        for resolution in result.resolutions
        if resolution.chosen is not None
        and resolution.chosen.kind == "reposition"
    )
    busy_seconds = perf_counter() - round_started - check_seconds
    cpu_seconds = thread_time() - cpu_started - check_cpu_seconds
    pace.sample(PACE_BURST)
    return RoundOutcome(
        pass_ms=pass_seconds * 1000.0,
        aborted=aborted,
        cycles=len(result.resolutions),
        tdr2=tdr2,
        latencies_ms=latencies,
        busy_seconds=busy_seconds,
        stats=result.stats,
        granted=min(1.0, cpu_seconds / busy_seconds),
        speed=pace.speed(),
    )


def run_rounds(
    manager,
    seed: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    first: int = 0,
) -> Rounds:
    """Rounds ``first, first+1, ...`` until ``seconds`` of wall time have
    passed or ``count`` rounds ran (whichever is given)."""
    rounds = Rounds()
    deadline = None if seconds is None else perf_counter() + seconds
    index = first
    while True:
        if count is not None and index - first >= count:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
        rounds.outcomes.append(run_round(manager, seed, index))
        index += 1
    return rounds


def clean_passes(manager, seconds: float, minimum: int = 5) -> List[float]:
    """Passes over the ballast-only table (nothing to find), ms each."""
    samples: List[float] = []
    deadline = perf_counter() + seconds
    while len(samples) < minimum or perf_counter() < deadline:
        started = perf_counter()
        result = manager.detect()
        samples.append((perf_counter() - started) * 1000.0)
        require(not result.deadlock_found, "clean pass found a deadlock")
    return samples


def check_same_victims(reference: Rounds, others: Dict[str, Rounds]) -> None:
    """For the same seed every binding must abort the same transactions
    in every round it ran."""
    for name, rounds in others.items():
        for index, (expected, got) in enumerate(
            zip(reference.aborted_sets, rounds.aborted_sets)
        ):
            require(
                expected == got,
                "round {}: {} aborted {}, the shards=1 reference {}".format(
                    index, name, sorted(got), sorted(expected)
                ),
            )


def peak_rss_mb() -> float:
    """Peak RSS of this process — it holds the lock table here."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
