"""The policy backend: equivalence and deadlock-freedom exploration."""

from repro.check import CheckConfig, run_check
from repro.check.policy import PolicyModel
from repro.check.runner import _build
from repro.check.schedule import RandomChooser, VirtualScheduler
from repro.check.workload import generate_programs


def explore(arm, seeds, **kwargs):
    programs = generate_programs(5, 3, "tiny-hot")
    results = []
    for seed in seeds:
        model = PolicyModel(programs, arm=arm, **kwargs)
        results.append(
            model.run(VirtualScheduler(RandomChooser(seed)))
        )
    return results


class TestEquivalenceArms:
    def test_periodic_matches_default_bit_for_bit(self):
        for result in explore("periodic", range(12)):
            assert result.ok, result.failure

    def test_adaptive_never_perturbs_pass_outcomes(self):
        for result in explore("adaptive", range(12)):
            assert result.ok, result.failure


class TestNoWaitArm:
    def test_nowait_worlds_stay_deadlock_free(self):
        saw_nowait_abort = False
        for result in explore("nowait", range(20)):
            assert result.ok, result.failure
            if result.counters.get("nowait_aborts"):
                saw_nowait_abort = True
        # The hot-spot preset must exercise the prevention path at
        # least once, or the property test proves nothing.
        assert saw_nowait_abort


class TestRunnerIntegration:
    def test_build_knows_the_backend(self):
        config = CheckConfig(backends=("policy",))
        model = _build("policy", config, workload_seed=1,
                       continuous=False)
        assert isinstance(model, PolicyModel)

    def test_small_sweep_through_run_check(self):
        config = CheckConfig(
            seed=7, schedules=8, backends=("policy",), actors=3
        )
        report = run_check(config)
        assert report.ok
        assert report.per_backend == {"policy": 8}
        stats = report.oracle_stats
        assert stats.state_checks > 0
        assert stats.equivalence_checks > 0
