"""Experiment runner: scheme comparisons and parameter sweeps.

Benchmarks and examples funnel through these helpers so every experiment
is one call: identical workload spec, seed and duration per scheme
(a :class:`~repro.policy.base.DetectionPolicy`), metrics out, text
tables rendered by :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..policy.base import DetectionPolicy
from .metrics import Metrics
from .system import SimulatedSystem
from .workload import WorkloadSpec

#: Factory producing a fresh policy per run (policies keep state).
PolicyFactory = Callable[[], DetectionPolicy]

#: What the paper's own live policies are reported as.
PARK_LABELS = {
    "periodic": "park-periodic",
    "continuous": "park-continuous",
    "adaptive": "park-adaptive",
}


def scheme_label(policy: DetectionPolicy) -> str:
    """The name a policy's runs are reported under: ``park-`` for the
    paper's own schemes, ``-no-tdr2`` under the A2 ablation."""
    label = PARK_LABELS.get(policy.name, policy.name)
    return label if policy.allow_tdr2 else label + "-no-tdr2"


@dataclass
class RunResult:
    """One (scheme, configuration) simulation outcome."""

    strategy: str
    metrics: Metrics
    seed: int
    config: Dict[str, object] = field(default_factory=dict)


def run_once(
    spec: WorkloadSpec,
    policy: DetectionPolicy,
    duration: float = 500.0,
    terminals: int = 8,
    seed: int = 0,
    period: Optional[float] = 10.0,
    oracle: bool = True,
) -> RunResult:
    """Simulate one policy on one workload."""
    system = SimulatedSystem(
        spec,
        policy,
        terminals=terminals,
        seed=seed,
        period=period,
        oracle=oracle,
    )
    metrics = system.run(duration)
    return RunResult(
        strategy=scheme_label(system.policy),
        metrics=metrics,
        seed=seed,
        config={"terminals": terminals, "period": period},
    )


def compare_strategies(
    spec: WorkloadSpec,
    factories: Sequence[PolicyFactory],
    duration: float = 500.0,
    terminals: int = 8,
    seeds: Sequence[int] = (0,),
    period: Optional[float] = 10.0,
    oracle: bool = True,
) -> List[RunResult]:
    """Run every scheme on identical workloads (same seeds) and return
    one result per (scheme, seed)."""
    results: List[RunResult] = []
    for factory in factories:
        for seed in seeds:
            results.append(
                run_once(
                    spec,
                    factory(),
                    duration=duration,
                    terminals=terminals,
                    seed=seed,
                    period=period,
                    oracle=oracle,
                )
            )
    return results


def sweep_period(
    spec: WorkloadSpec,
    factory: PolicyFactory,
    periods: Sequence[float],
    duration: float = 500.0,
    terminals: int = 8,
    seed: int = 0,
) -> List[RunResult]:
    """Experiment A3: the detection-interval trade-off for a periodic
    policy — larger periods mean fewer passes but longer-lived
    deadlocks."""
    results: List[RunResult] = []
    for period in periods:
        result = run_once(
            spec,
            factory(),
            duration=duration,
            terminals=terminals,
            seed=seed,
            period=period,
        )
        result.config["period"] = period
        results.append(result)
    return results


def aggregate_stats(
    results: Sequence[RunResult],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Mean, standard deviation and range per metric per scheme —
    for multi-seed experiments that need error bars.

    ``aggregate_stats(rs)["park-periodic"]["commits"]`` yields
    ``{"mean": ..., "std": ..., "min": ..., "max": ...}``.
    """
    import math

    grouped: Dict[str, List[Metrics]] = {}
    for result in results:
        grouped.setdefault(result.strategy, []).append(result.metrics)
    stats: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, metrics_list in grouped.items():
        keys = metrics_list[0].summary().keys()
        stats[name] = {}
        for key in keys:
            values = [m.summary()[key] for m in metrics_list]
            mean = sum(values) / len(values)
            variance = sum((v - mean) ** 2 for v in values) / len(values)
            stats[name][key] = {
                "mean": mean,
                "std": math.sqrt(variance),
                "min": min(values),
                "max": max(values),
            }
    return stats


def aggregate(results: Sequence[RunResult]) -> Dict[str, Dict[str, float]]:
    """Average the metric summaries of multi-seed runs per scheme."""
    grouped: Dict[str, List[Metrics]] = {}
    for result in results:
        grouped.setdefault(result.strategy, []).append(result.metrics)
    averaged: Dict[str, Dict[str, float]] = {}
    for name, metrics_list in grouped.items():
        keys = metrics_list[0].summary().keys()
        averaged[name] = {
            key: sum(m.summary()[key] for m in metrics_list)
            / len(metrics_list)
            for key in keys
        }
    return averaged
