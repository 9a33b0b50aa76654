"""The explorer: drive many schedules and report what the oracles saw.

One ``run_check`` call is fully determined by its
:class:`CheckConfig`: schedule *i* runs backend
``backends[i % len(backends)]`` with a workload seed and a scheduler
seed both derived arithmetically from the base seed and *i*, and with
the detection strategy (periodic vs continuous) alternating per
backend round.  The report carries a digest over every decision trace,
so two runs with the same config can be compared for determinism with
a single string equality.

Failing schedules are persisted as artifacts (optionally
prefix-shrunk first) and exploration stops once ``max_failures`` have
been collected.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .artifact import (
    Artifact,
    build_model,
    save_artifact,
    shrink_artifact,
)
from .lockstep import ScheduleResult
from .oracles import OracleStats
from .schedule import (
    RandomChooser,
    VirtualScheduler,
    enumerate_schedules,
)

DEFAULT_BACKENDS = ("concurrent", "service")

_MIX = 0x9E3779B9  # golden-ratio odd constant, the usual seed splitter


def derive_seeds(base: int, index: int) -> Tuple[int, int]:
    """Deterministic (workload_seed, scheduler_seed) for schedule #index."""
    workload = (base * 1_000_003 + index * 7919 + 1) & 0x7FFFFFFF
    scheduler = (workload ^ _MIX ^ (index << 8)) & 0x7FFFFFFF
    return workload, scheduler


@dataclass
class CheckConfig:
    """Everything that determines an exploration run."""

    seed: int = 0
    schedules: int = 100
    backends: Sequence[str] = DEFAULT_BACKENDS
    actors: int = 3
    preset: str = "tiny-hot"
    faults: bool = True
    exhaustive: bool = False
    max_failures: int = 1
    shrink: bool = True
    artifact_dir: Optional[str] = None


@dataclass
class CheckReport:
    """Aggregate outcome of one exploration run."""

    config: CheckConfig
    schedules_run: int = 0
    per_backend: dict = field(default_factory=dict)
    oracle_stats: OracleStats = field(default_factory=OracleStats)
    failures: List[Artifact] = field(default_factory=list)
    artifact_paths: List[str] = field(default_factory=list)
    trace_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        stats = self.oracle_stats
        lines = [
            "schedules: {} ({})".format(
                self.schedules_run,
                ", ".join(
                    "{} {}".format(count, backend)
                    for backend, count in sorted(self.per_backend.items())
                ),
            ),
            "oracle checks: {} state, {} detection, {} service, "
            "{} span, {} equivalence, {} recovery, {} incident, "
            "{} saturation".format(
                stats.state_checks,
                stats.detection_checks,
                stats.service_checks,
                stats.span_checks,
                stats.equivalence_checks,
                stats.recovery_checks,
                stats.incident_checks,
                stats.saturation_checks,
            ),
            "trace digest: {}".format(self.trace_digest),
        ]
        if self.ok:
            lines.append("result: OK — every schedule passed every oracle")
        else:
            lines.append(
                "result: {} FAILING schedule(s)".format(len(self.failures))
            )
            for artifact, path in zip(self.failures, self.artifact_paths):
                failure = artifact.failure or {}
                lines.append(
                    "  [{}] {} — replay with: python -m repro check "
                    "--replay {}".format(
                        failure.get("oracle", "?"),
                        failure.get("detail", "?"),
                        path or "<unsaved>",
                    )
                )
        return lines


def _build(backend: str, config: CheckConfig, workload_seed: int,
           continuous: bool):
    return build_model(
        backend, workload_seed, config.actors, config.preset,
        continuous, config.faults,
    )


def run_check(config: CheckConfig, log=None) -> CheckReport:
    """Explore ``config.schedules`` schedules; see the module docstring."""
    report = CheckReport(config=config)
    digest = hashlib.sha256()
    backends = list(config.backends) or list(DEFAULT_BACKENDS)

    def record(backend: str, workload_seed: int, continuous: bool,
               scheduler: VirtualScheduler, result: ScheduleResult) -> bool:
        """Account one finished schedule; True to keep exploring."""
        report.schedules_run += 1
        report.per_backend[backend] = report.per_backend.get(backend, 0) + 1
        report.oracle_stats.absorb(result.oracle_stats)
        digest.update(
            ",".join(str(d) for d in scheduler.decisions()).encode()
        )
        digest.update(b"|")
        if result.ok:
            return True
        failure = result.failure
        artifact = Artifact(
            backend=backend,
            seed=workload_seed,
            actors=config.actors,
            preset=config.preset,
            continuous=continuous,
            faults=config.faults,
            decisions=scheduler.decisions(),
            failure={
                "oracle": failure.oracle,
                "detail": failure.detail,
                "step": failure.step,
                "transition": failure.transition,
            },
        )
        if config.shrink:
            artifact = shrink_artifact(artifact)
        path = ""
        if config.artifact_dir:
            os.makedirs(config.artifact_dir, exist_ok=True)
            path = os.path.join(
                config.artifact_dir,
                "check-{}-{}-{}.json".format(
                    backend, workload_seed, report.schedules_run
                ),
            )
            save_artifact(artifact, path)
        report.failures.append(artifact)
        report.artifact_paths.append(path)
        if log is not None:
            log("FAIL {}".format(failure))
        return len(report.failures) < config.max_failures

    if config.exhaustive:
        exploring = True
        for round_index, backend in enumerate(backends):
            if not exploring:
                break
            workload_seed, _ = derive_seeds(config.seed, round_index)
            continuous = round_index % 2 == 1
            model = _build(backend, config, workload_seed, continuous)
            budget = max(1, config.schedules // len(backends))
            for scheduler, result in enumerate_schedules(model.run, budget):
                if not record(backend, workload_seed, continuous,
                              scheduler, result):
                    exploring = False
                    break
    else:
        for index in range(config.schedules):
            backend = backends[index % len(backends)]
            workload_seed, scheduler_seed = derive_seeds(config.seed, index)
            continuous = (index // len(backends)) % 2 == 1
            model = _build(backend, config, workload_seed, continuous)
            scheduler = VirtualScheduler(RandomChooser(scheduler_seed))
            result = model.run(scheduler)
            if not record(backend, workload_seed, continuous,
                          scheduler, result):
                break

    report.trace_digest = digest.hexdigest()
    return report
