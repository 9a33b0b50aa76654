"""Empirical validation of the paper's complexity claims (C1–C3).

Section 5 claims O(n + e) space, O(n + e) time for an acyclic table,
O(n + e·(c' + 1)) with cycles, victim selection in O(n), and
c' ≤ min(c, n).  These helpers run the detector over parametric
scenarios, read its instrumentation counters and check/report the
scaling.  ``fit_linearity`` quantifies how close a measured curve is to
linear via the residual of a least-squares line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..core.detection import DetectionResult, detect_once
from ..core.victim import CostTable
from ..lockmgr.lock_table import LockTable
from . import scenarios


@dataclass
class ScalingPoint:
    """One measurement of detector effort at one scenario size."""

    size: int
    transactions: int
    edges: int
    edges_examined: int
    cycles_found: int
    backtracks: int

    @property
    def work(self) -> int:
        """The cost proxy the claims are about: edges examined plus the
        walk's bookkeeping steps."""
        return self.edges_examined + self.backtracks + self.transactions


def measure(
    builder: Callable[[int], Tuple[LockTable, List[int]]],
    sizes: Sequence[int],
) -> List[ScalingPoint]:
    """Run the periodic detector on ``builder(size)`` for each size."""
    points: List[ScalingPoint] = []
    for size in sizes:
        table, _tids = builder(size)
        result = detect_once(table, CostTable())
        stats = result.stats
        points.append(
            ScalingPoint(
                size=size,
                transactions=stats.transactions,
                edges=stats.edges_total,
                edges_examined=stats.edges_examined,
                cycles_found=stats.cycles_found,
                backtracks=stats.backtrack_steps,
            )
        )
    return points


def measure_chains(sizes: Sequence[int]) -> List[ScalingPoint]:
    """C1: acyclic chains — work should grow linearly in n + e."""
    return measure(scenarios.build_chain, sizes)


def measure_rings(sizes: Sequence[int]) -> List[ScalingPoint]:
    """C2 (single cycle): one ring of growing size — one cycle found,
    work linear in the ring length."""
    return measure(scenarios.build_ring, sizes)


def measure_ring_counts(
    counts: Sequence[int], ring_size: int = 4
) -> List[ScalingPoint]:
    """C2 (many cycles): constant-size rings, growing count — c' equals
    the ring count and work stays linear in total table size."""
    return measure(
        lambda count: scenarios.build_rings(count, ring_size), counts
    )


def fit_linearity(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line fit; returns ``(slope, r_squared)``.

    An R² near 1 on a work-vs-size curve is the empirical signature of
    the claimed linear scaling.
    """
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    total = sum((y - mean_y) ** 2 for y in ys)
    if total == 0.0:
        return slope, 1.0
    residual = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    return slope, 1.0 - residual / total


def check_cprime_bounds(result: DetectionResult, circuits: int) -> bool:
    """The paper's bound: c' ≤ min(c, n)."""
    stats = result.stats
    return stats.cycles_found <= min(circuits, stats.transactions)
