"""Failure artifacts: a schedule as a seed plus a decision list.

A failing schedule is fully determined by (backend, workload seed,
actor count, preset, flags, decision list) — a few hundred bytes of
JSON.  Replaying the artifact re-runs the exact schedule through
:class:`~repro.check.schedule.ReplayChooser`; because the replay
chooser's ``tail="first"`` mode makes *any prefix* a complete,
deterministic schedule, artifacts also shrink: drop decisions off the
end, keep the shortest prefix that still fails, and the minimized
artifact points much closer to the offending interleaving.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from ..core.errors import ReproError
from .cluster import ClusterModel
from .concurrent import ConcurrentModel
from .lockstep import ScheduleResult
from .policy import PolicyModel
from .races import RaceModel
from .schedule import ReplayChooser, VirtualScheduler
from .service import ServiceModel
from .sharded import EquivalenceModel
from .workload import generate_programs

ARTIFACT_VERSION = 1

_LOCKSTEP_BACKENDS = {
    model.backend: model
    for model in (ConcurrentModel, EquivalenceModel, ClusterModel, PolicyModel)
}


@dataclass
class Artifact:
    """Everything needed to reproduce one failing schedule."""

    backend: str
    seed: int
    actors: int
    preset: str
    continuous: bool
    faults: bool
    decisions: List[int]
    failure: Optional[dict] = None
    version: int = ARTIFACT_VERSION
    shrunk_from: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Artifact":
        data = json.loads(text)
        version = data.get("version", 0)
        if version != ARTIFACT_VERSION:
            raise ReproError(
                "artifact version {} not supported (expected {})".format(
                    version, ARTIFACT_VERSION
                )
            )
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def save_artifact(artifact: Artifact, path: str) -> str:
    with open(path, "w") as handle:
        handle.write(artifact.to_json())
        handle.write("\n")
    return path


def load_artifact(path: str) -> Artifact:
    with open(path) as handle:
        return Artifact.from_json(handle.read())


def build_model(
    backend: str,
    seed: int,
    actors: int,
    preset: str,
    continuous: bool,
    faults: bool,
):
    """The backend model for one workload — what the explorer runs and
    what an artifact recorded against it replays."""
    if backend == "races":
        return RaceModel()
    programs = generate_programs(seed, actors, preset)
    if backend == "service":
        return ServiceModel(programs, continuous=continuous, faults=faults)
    kind = _LOCKSTEP_BACKENDS.get(backend)
    if kind is None:
        raise ReproError("unknown backend {!r}".format(backend))
    return kind(programs, continuous=continuous)


def replay_artifact(
    artifact: Artifact, tail: str = "first"
) -> "ReplayOutcome":
    """Re-run an artifact's schedule and report whether it still fails.

    ``tail="first"`` (default) tolerates decision lists shorter than
    the run — the shrinking contract; ``tail="error"`` demands the list
    cover every decision (strict replay).
    """
    model = build_model(
        artifact.backend, artifact.seed, artifact.actors, artifact.preset,
        artifact.continuous, artifact.faults,
    )
    scheduler = VirtualScheduler(
        ReplayChooser(artifact.decisions, tail=tail)
    )
    result = model.run(scheduler)
    return ReplayOutcome(
        artifact=artifact,
        result=result,
        decisions=scheduler.decisions(),
        trace=scheduler.describe(),
    )


@dataclass
class ReplayOutcome:
    """A replayed schedule: its result and the re-recorded trace."""

    artifact: Artifact
    result: ScheduleResult
    decisions: List[int] = field(default_factory=list)
    trace: List[str] = field(default_factory=list)

    @property
    def reproduced(self) -> bool:
        """Did the replay fail on the same oracle as the recording?"""
        if self.result.ok or self.result.failure is None:
            return False
        recorded = (self.artifact.failure or {}).get("oracle")
        return recorded is None or self.result.failure.oracle == recorded


def shrink_artifact(artifact: Artifact, budget: int = 200) -> Artifact:
    """Prefix-shrink: the shortest decision prefix that still fails.

    First halves the prefix while the failure reproduces, then walks
    the length back up linearly — at most ``budget`` replays.  Returns
    the original artifact unchanged if it does not reproduce at all.
    """
    if not replay_artifact(artifact).reproduced:
        return artifact
    original = len(artifact.decisions)

    def fails_with(length: int) -> bool:
        candidate = Artifact(
            backend=artifact.backend,
            seed=artifact.seed,
            actors=artifact.actors,
            preset=artifact.preset,
            continuous=artifact.continuous,
            faults=artifact.faults,
            decisions=artifact.decisions[:length],
            failure=artifact.failure,
        )
        return replay_artifact(candidate).reproduced

    spent = 0
    best = original
    # Greedy halving descent, then a linear walk-down to the floor.
    while best > 0 and spent < budget and fails_with(best // 2):
        best //= 2
        spent += 1
    while best > 0 and spent < budget and fails_with(best - 1):
        best -= 1
        spent += 1
    if best == original:
        return artifact
    return Artifact(
        backend=artifact.backend,
        seed=artifact.seed,
        actors=artifact.actors,
        preset=artifact.preset,
        continuous=artifact.continuous,
        faults=artifact.faults,
        decisions=artifact.decisions[:best],
        failure=artifact.failure,
        shrunk_from=original,
    )
