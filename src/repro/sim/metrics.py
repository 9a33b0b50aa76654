"""Metrics collected by the simulator.

Everything the comparative experiments report comes out of this object:
throughput and response time (the classic performance view), abort and
restart counts with wasted work (the victim-policy view), deadlock
latency (time deadlock sat unresolved — the detection-delay view of
experiment X1) and detector effort counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List


@dataclass
class Metrics:
    """Counters for one simulation run."""

    duration: float = 0.0
    commits: int = 0
    deadlock_aborts: int = 0
    prevention_aborts: int = 0
    timeout_aborts: int = 0
    restarts: int = 0
    useful_work: float = 0.0
    wasted_work: float = 0.0
    response_times: List[float] = field(default_factory=list)
    blocked_time: float = 0.0

    deadlocks_resolved: int = 0
    abort_free_resolutions: int = 0
    repositions: int = 0

    #: Ground-truth deadlock persistence (the oracle's view).
    deadlock_episodes: int = 0
    deadlock_latency_total: float = 0.0

    detection_passes: int = 0
    block_events: int = 0
    lock_requests: int = 0

    @property
    def throughput(self) -> float:
        """Committed transactions per time unit."""
        return self.commits / self.duration if self.duration else 0.0

    @property
    def total_aborts(self) -> int:
        return (
            self.deadlock_aborts
            + self.prevention_aborts
            + self.timeout_aborts
        )

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def response_percentile(self, fraction: float) -> float:
        """Response-time percentile (``fraction`` in [0, 1]; nearest-rank
        on the sorted commit latencies).  Tail latency is where deadlock
        stalls show up first — a mean can hide a minute-long p99."""
        if not self.response_times:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        ordered = sorted(self.response_times)
        # Nearest rank ceil(p*n), 1-based; rounding first keeps a float
        # product such as 0.07 * 100 = 7.000000000000001 at rank 7.
        rank = math.ceil(round(fraction * len(ordered), 9))
        return ordered[max(rank - 1, 0)]

    @property
    def p95_response_time(self) -> float:
        return self.response_percentile(0.95)

    @property
    def max_response_time(self) -> float:
        return max(self.response_times) if self.response_times else 0.0

    @property
    def mean_deadlock_latency(self) -> float:
        """Average time a deadlock existed before some scheme action (or
        a fortunate abort) removed it."""
        if not self.deadlock_episodes:
            return 0.0
        return self.deadlock_latency_total / self.deadlock_episodes

    @property
    def wasted_fraction(self) -> float:
        total = self.useful_work + self.wasted_work
        return self.wasted_work / total if total else 0.0

    def summary(self) -> dict:
        """Flat dict for report tables."""
        return {
            "commits": self.commits,
            "throughput": round(self.throughput, 4),
            "aborts": self.total_aborts,
            "deadlock_aborts": self.deadlock_aborts,
            "restarts": self.restarts,
            "wasted_fraction": round(self.wasted_fraction, 4),
            "mean_response": round(self.mean_response_time, 3),
            "p95_response": round(self.p95_response_time, 3),
            "deadlocks_resolved": self.deadlocks_resolved,
            "abort_free": self.abort_free_resolutions,
            "deadlock_episodes": self.deadlock_episodes,
            "mean_deadlock_latency": round(self.mean_deadlock_latency, 3),
            "detection_passes": self.detection_passes,
        }
