"""The unified lockstep driver must still bite.

Two kinds of evidence that folding five hand-written actor loops into
:mod:`repro.check.lockstep` weakened nothing:

* **Pins** — per backend, at ``seed=7, schedules=40``, the trace digest
  and oracle-check counts recorded with the five separate loops (the
  parent of the commit that introduced the driver).  The digest hashes
  every scheduler decision of every schedule, so it moves if a
  transition is enabled, ordered or chosen differently anywhere; the
  counts move if an oracle stops being consulted.
* **Planted divergences** — a facade that lies in one specific way must
  be reported by the right oracle, at the step where it first lied.
"""

import pytest

from repro.check import CheckConfig, run_check
from repro.check.cluster import ClusterModel
from repro.check.lockstep import LockstepModel, Worlds
from repro.check.policy import NoWaitArm, PolicyModel
from repro.check.runner import derive_seeds
from repro.check.schedule import RandomChooser, VirtualScheduler
from repro.check.sharded import EquivalenceModel
from repro.check.workload import generate_programs
from repro.cluster.local import LocalCluster, LocalTransport
from repro.lockmgr import LockManager, ShardedLockCore
from repro.lockmgr.events import Granted
from repro.policy.nowait import NoWaitPolicy

#: backend -> (digest, state, detection, equivalence, incident checks).
#: ``service`` keeps its own loop; its pin is what ``repro check
#: --backends service`` printed at the same seed and budget.
PINNED = {
    "concurrent": (
        "2215483c38e817ffe1a36ddcb1646842e031f07b34f29754ab0d5bf49f8832ed",
        1073, 301, 0, 0,
    ),
    "sharded": (
        "40d9b7aa6cb2cb6a987ee1f1da9918bd55908e42c7d4469c9d93497074a22a7e",
        1250, 395, 1250, 0,
    ),
    "policy": (
        "2b3a6b3a113a46075fda3cea9a55a1cdfa2e7c375a39aa4955caff9a558d3da5",
        1206, 358, 1000, 0,
    ),
    "cluster": (
        "faaeb2d99e79d4c62cf92f1e78649c39ee6b9bb0c8322cd3895b91348806feb3",
        1231, 384, 1231, 384,
    ),
    "service": (
        "48a253e31529c70ed9735654df507bed84383df46d6cd93ad9dbd2076eb1b451",
        1437, 104, 0, 104,
    ),
}


@pytest.mark.parametrize("backend", sorted(PINNED))
def test_explorer_is_pinned_to_the_recorded_digest(backend):
    report = run_check(
        CheckConfig(seed=7, schedules=40, backends=(backend,))
    )
    assert report.ok, report.summary_lines()
    stats = report.oracle_stats
    assert (
        report.trace_digest,
        stats.state_checks,
        stats.detection_checks,
        stats.equivalence_checks,
        stats.incident_checks,
    ) == PINNED[backend]


@pytest.mark.parametrize("wire", ["json", "binary"])
@pytest.mark.parametrize("shards", [1, 4])
def test_the_service_pin_holds_on_every_shard_count_and_codec(
    shards, wire, monkeypatch
):
    """The service schedules decide nothing by shard count or codec:
    the same digest and oracle counts on all four configurations (a
    continuous schedule runs on one shard whatever is asked)."""
    from repro.check import runner
    from repro.check.service import ServiceModel
    from repro.check.workload import generate_programs

    def build_model(backend, seed, actors, preset, continuous, faults):
        return ServiceModel(
            generate_programs(seed, actors, preset),
            continuous=continuous,
            faults=faults,
            shards=shards,
            wire=wire,
        )

    monkeypatch.setattr(runner, "build_model", build_model)
    test_explorer_is_pinned_to_the_recorded_digest("service")


# -- planted divergences -----------------------------------------------------


def explore(make_model, base, schedules=40):
    """Run ``make_model(programs)`` over a seed sweep; returns the
    (model, result) pairs."""
    runs = []
    for index in range(schedules):
        workload_seed, scheduler_seed = derive_seeds(base, index)
        model = make_model(generate_programs(workload_seed, 3, "tiny-hot"))
        scheduler = VirtualScheduler(RandomChooser(scheduler_seed))
        runs.append((model, model.run(scheduler)))
    return runs


def actor_of(tid):
    """The actor running ``tid`` before any restart renumbered it."""
    return "a{}".format(tid - 1)


class _DropsARid(ShardedLockCore):
    """``holding`` forgets the last resource of anyone holding two."""

    def holding(self, tid):
        held = super().holding(tid)
        if len(held) >= 2:
            del held[max(held)]
        return held


class _DropsARidModel(EquivalenceModel):
    """Also notes, from the *reference*, the first step after which some
    actor holds two locks — where the lie must surface."""

    first_double_hold = None
    steps_seen = 0

    def open(self, scheduler):
        return Worlds(
            _DropsARid(shards=4, policy="periodic"),
            LockManager(policy="periodic"),
            tag="mutant",
        )

    def check_world(self, worlds, table):
        if self.first_double_hold is None and any(
            len(worlds.reference.holding(actor.tid)) >= 2
            for actor in worlds.actors
        ):
            self.first_double_hold = self.steps_seen
        self.steps_seen += 1
        return []


def test_a_sharded_core_that_drops_a_holding_is_caught():
    caught = 0
    for model, result in explore(_DropsARidModel, base=3):
        if model.first_double_hold is None:
            assert result.ok, result.summary()
            continue
        caught += 1
        failure = result.failure
        assert failure.oracle == "equivalence"
        assert "holds" in failure.detail
        assert failure.step == model.first_double_hold
        assert result.steps == failure.step + 1
    assert caught > 10


class _SkipsReleases(LocalTransport):
    """Drops the coordinator's ``releases`` plans: a victim keeps the
    locks it holds on workers other than the one it waited at."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.skipped_in_pass = None

    def resolve(self, index, plan):
        core = self._cluster.cores[index]
        if any(core.holding(tid) for tid in plan.get("releases") or ()):
            if self.skipped_in_pass is None:
                self.skipped_in_pass = self._cluster.passes
            plan = dict(plan, releases=[])
        return super().resolve(index, plan)


class _LeakyCluster(LocalCluster):
    passes = 0

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._transport = _SkipsReleases(self)

    def detect(self):
        self.passes += 1
        return super().detect()


class _LeakyClusterModel(ClusterModel):
    def open(self, scheduler):
        worlds = super().open(scheduler)
        worlds.subject = self.cluster = _LeakyCluster(
            workers=worlds.counters["workers"], policy="periodic"
        )
        return worlds


def test_a_cluster_pass_that_skips_a_victims_release_is_caught():
    caught = 0
    for model, result in explore(_LeakyClusterModel, base=5, schedules=60):
        skipped_in_pass = model.cluster._transport.skipped_in_pass
        if skipped_in_pass is None:
            assert result.ok, result.summary()
            continue
        caught += 1
        failure = result.failure
        assert failure.oracle == "equivalence"
        assert failure.transition == "detect"
        # Reported by the very pass that leaked, not a later one.
        assert result.counters["detects"] == skipped_in_pass
        assert result.steps == failure.step + 1
    assert caught > 3


class _Generous(LockManager):
    """Claims a grant for the first request that actually blocked."""

    lied = None

    def lock(self, tid, rid, mode):
        outcome = super().lock(tid, rid, mode)
        if outcome.granted or self.lied is not None:
            return outcome
        self.lied = (tid, rid)
        return Granted(tid, rid, mode, immediate=True)


class _GenerousModel(LockstepModel):
    backend = "mutant"

    def open(self, scheduler):
        self.subject = _Generous(policy="periodic")
        return Worlds(
            self.subject, LockManager(policy="periodic"), tag="mutant"
        )


def test_a_subject_that_grants_what_the_reference_blocks_is_caught():
    caught = 0
    for model, result in explore(_GenerousModel, base=9):
        if model.subject.lied is None:
            assert result.ok, result.summary()
            continue
        caught += 1
        tid, rid = model.subject.lied
        failure = result.failure
        assert failure.oracle == "equivalence"
        assert failure.transition == "step:" + actor_of(tid)
        assert "lock T{} {}".format(tid, rid) in failure.detail
        assert result.steps == failure.step + 1
    assert caught > 10


class _AdmitsEveryWait(NoWaitPolicy):
    def on_block(self, host, tid, rid, mode):
        return None


class _BrokenNoWaitArm(NoWaitArm):
    """Also notes the first step after which the world is deadlocked, by
    the core's own ``deadlocked()``."""

    first_deadlock = None
    steps_seen = 0

    def open(self, scheduler):
        return Worlds(
            LockManager(policy=_AdmitsEveryWait()),
            tag="mutant", nowait_aborts=0,
        )

    def check_world(self, worlds, table):
        if self.first_deadlock is None and worlds.subject.deadlocked():
            self.first_deadlock = self.steps_seen
        self.steps_seen += 1
        return super().check_world(worlds, table)


def test_a_nowait_world_that_admits_an_out_of_order_wait_is_caught():
    caught = 0
    runs = explore(
        lambda programs: _BrokenNoWaitArm(PolicyModel(programs), "nowait"),
        base=11,
    )
    for model, result in runs:
        if model.first_deadlock is None:
            assert result.ok, result.summary()
            continue
        caught += 1
        failure = result.failure
        assert failure.oracle == "nowait-deadlock-free"
        assert failure.transition.startswith("step:")
        assert failure.step == model.first_deadlock
        assert result.steps == failure.step + 1
    assert caught > 3
