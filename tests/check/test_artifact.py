"""Artifacts: persistence, byte-for-byte replay, prefix shrinking —
proven end to end by resurrecting the facade's old timeout/grant bug
and letting the explorer find, record, replay and shrink it."""

import threading

import pytest

from repro.check import CheckConfig, run_check
from repro.check.artifact import (
    Artifact,
    load_artifact,
    replay_artifact,
    save_artifact,
    shrink_artifact,
)
from repro.check.races import RaceModel
from repro.check.schedule import RandomChooser, ReplayDivergence, VirtualScheduler
from repro.check.workload import generate_programs
from repro.check import races as races_module
from repro.core.errors import ReproError, TransactionAborted
from repro.lockmgr import ShardedLockManager


class _BuggyFacade(ShardedLockManager):
    """The pre-fix wait loop: honours the wait result before looking at
    the lock table, so a grant or abort that lands in the same instant
    as the timeout is reported as a plain timeout."""

    def acquire(self, tid, rid, mode, timeout=None):
        core, shard = self._core, self._core.shards[0]
        with shard.mutex:
            if core.was_aborted(tid):
                raise TransactionAborted(tid)
            if not core.is_blocked(tid):
                outcome = core.lock(tid, rid, mode)
                if outcome.granted:
                    return True
            condition = shard.wakeups.setdefault(
                tid, threading.Condition(shard.mutex)
            )
            self._wait_shard[tid] = shard
            while True:
                woken = self._wait_fn(condition, timeout)
                if not woken:
                    return False  # the bug: timeout outranks the table
                if core.was_aborted(tid):
                    raise TransactionAborted(tid)
                if not core.is_blocked(tid):
                    return True


def make_artifact(**overrides):
    fields = dict(
        backend="concurrent",
        seed=123,
        actors=3,
        preset="tiny-hot",
        continuous=False,
        faults=True,
        decisions=[0, 1, 2],
        failure={"oracle": "table", "detail": "x", "step": 1,
                 "transition": "t"},
    )
    fields.update(overrides)
    return Artifact(**fields)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.json")
        artifact = make_artifact()
        save_artifact(artifact, path)
        assert load_artifact(path) == artifact

    def test_unknown_version_rejected(self):
        text = make_artifact().to_json().replace(
            '"version": 1', '"version": 99'
        )
        with pytest.raises(ReproError):
            Artifact.from_json(text)


class TestStrictReplay:
    def test_recorded_schedule_replays_byte_for_byte(self):
        """Record a passing schedule, then replay it with tail="error"
        (every decision must be consumed, none invented): the re-recorded
        decision list must equal the original exactly."""
        for backend in ("concurrent", "service"):
            programs = generate_programs(99, actors=3)
            if backend == "concurrent":
                from repro.check.concurrent import ConcurrentModel
                model = ConcurrentModel(programs)
            else:
                from repro.check.service import ServiceModel
                model = ServiceModel(programs)
            scheduler = VirtualScheduler(RandomChooser(4242))
            first = model.run(scheduler)
            assert first.ok
            artifact = make_artifact(
                backend=backend, seed=99,
                decisions=scheduler.decisions(), failure=None,
            )
            outcome = replay_artifact(artifact, tail="error")
            assert outcome.decisions == artifact.decisions
            assert outcome.result.ok

    def test_replay_diverges_on_wrong_decisions(self):
        artifact = make_artifact(
            seed=99, decisions=[999] * 5, failure=None
        )
        with pytest.raises(ReplayDivergence):
            replay_artifact(artifact, tail="error")


class TestBuggyFacadeEndToEnd:
    """The real exercise: put the old bug back and run the pipeline."""

    def _patched(self, monkeypatch):
        monkeypatch.setattr(
            races_module, "ShardedLockManager", _BuggyFacade
        )

    def test_explorer_finds_records_replays_and_shrinks(
        self, monkeypatch, tmp_path
    ):
        self._patched(monkeypatch)
        report = run_check(
            CheckConfig(
                seed=0,
                schedules=100,
                backends=("races",),
                exhaustive=True,
                artifact_dir=str(tmp_path),
            )
        )
        assert not report.ok, "the resurrected bug must be caught"
        artifact = report.failures[0]
        assert artifact.failure["oracle"] == "race"
        assert "timeout" in artifact.failure["detail"]

        # The saved artifact reproduces deterministically...
        loaded = load_artifact(report.artifact_paths[0])
        assert replay_artifact(loaded).reproduced

        # ...was already shrunk by the runner (prefix contract: every
        # decision kept is needed; one fewer no longer reproduces)...
        shorter = make_artifact(
            backend="races", decisions=loaded.decisions[:-1],
            failure=loaded.failure,
        )
        if loaded.decisions:
            assert not replay_artifact(shorter).reproduced

        # ...and shrinking again is a fixed point.
        again = shrink_artifact(loaded)
        assert again.decisions == loaded.decisions

    def test_fixed_facade_does_not_reproduce_the_artifact(
        self, monkeypatch, tmp_path
    ):
        self._patched(monkeypatch)
        report = run_check(
            CheckConfig(seed=0, schedules=100, backends=("races",),
                        exhaustive=True)
        )
        artifact = report.failures[0]
        monkeypatch.undo()  # back to the fixed ShardedLockManager
        outcome = replay_artifact(artifact)
        assert not outcome.reproduced
        assert outcome.result.ok

    def test_fixed_facade_passes_the_whole_race_tree(self):
        report = run_check(
            CheckConfig(seed=0, schedules=100, backends=("races",),
                        exhaustive=True)
        )
        assert report.ok, report.summary_lines()
