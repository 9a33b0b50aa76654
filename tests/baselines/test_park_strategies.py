"""The paper's detectors as the simulator runs them: policies on the
lock core."""

from repro.analysis.scenarios import build_ring
from repro.baselines.wfg import has_deadlock
from repro.policy import ContinuousPolicy, PeriodicPolicy
from repro.sim.runner import scheme_label

from .host import block, hosted


class TestParkPeriodic:
    def test_resolves_and_applies(self):
        table, _ = build_ring(3)
        core = hosted(table, PeriodicPolicy())
        result = core.detect()
        assert result.stats.cycles_found == 1
        assert len(result.aborted) == 1
        assert not has_deadlock(core.table)

    def test_tdr2_outcome_reports_reposition(self, example_41_table):
        result = hosted(example_41_table, PeriodicPolicy()).detect()
        assert result.aborted == []
        assert [event.rid for event in result.repositions] == ["R2"]
        assert [event.tid for event in result.grants] == [9]

    def test_ablation_disables_tdr2(self, example_41_table):
        policy = PeriodicPolicy(allow_tdr2=False)
        result = hosted(example_41_table, policy).detect()
        assert result.aborted
        assert not result.repositions
        assert result.stats.tdr2_applicable and not result.stats.tdr2_applied
        assert scheme_label(policy) == "park-periodic-no-tdr2"


class TestParkContinuous:
    def test_resolves_on_block(self):
        table, _ = build_ring(4)
        core = hosted(table, ContinuousPolicy())
        result = block(core, 1)
        assert result.stats.cycles_found == 1
        assert not has_deadlock(core.table)
