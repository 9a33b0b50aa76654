"""Cluster-vs-sharded equivalence (the wire-dialect property test).

The ``cluster`` backend drives the same generated programs through a
``LocalCluster`` (worker cores behind the coordinator, every plan and
reply JSON round-tripped) and a single-process ``ShardedLockCore`` in
lockstep, comparing grant/block outcomes, holdings, abort flags and
each coordinator pass's full detection summary.  Here that comparison
runs as a property over random workloads, schedules and worker counts.
The byte-identical rendering of the cluster's merged *full* table is an
audit of every row on every worker (no pass reads them any more); it
runs in the nightly sweep (``HYPOTHESIS_PROFILE=nightly``) only.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckConfig, run_check
from repro.check.cluster import WORKER_CHOICES, ClusterModel
from repro.check.runner import derive_seeds
from repro.check.schedule import RandomChooser, VirtualScheduler
from repro.check.workload import generate_programs


def run_one(
    index, base=67, workers=None, preset="tiny-hot", actors=3, audit=False
):
    workload_seed, scheduler_seed = derive_seeds(base, index)
    model = ClusterModel(
        generate_programs(workload_seed, actors=actors, preset=preset),
        workers=workers,
        audit=audit,
    )
    return model.run(VirtualScheduler(RandomChooser(scheduler_seed)))


@pytest.mark.skipif(
    os.environ.get("HYPOTHESIS_PROFILE") != "nightly",
    reason="full-table audit: nightly sweep only",
)
@given(index=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_merged_full_table_is_byte_identical_to_the_sharded_table(index):
    result = run_one(index, base=29, audit=True)
    assert result.ok, result.summary()


@given(index=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_cluster_is_equivalent_to_sharded_core(index):
    result = run_one(index)
    assert result.ok, result.summary()
    assert result.oracle_stats.equivalence_checks > 0


@given(index=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_equivalence_holds_for_the_five_mode_preset(index):
    result = run_one(index, base=13, preset="tiny-five-mode")
    assert result.ok, result.summary()


def test_every_worker_choice_is_equivalent():
    for workers in WORKER_CHOICES:
        for index in range(3):
            result = run_one(index, base=41, workers=workers)
            assert result.ok, result.summary()
            assert result.counters["workers"] == workers


def test_detection_passes_actually_compared():
    detects = 0
    for index in range(15):
        result = run_one(index, base=77)
        assert result.ok, result.summary()
        detects += result.counters["detects"]
    assert detects > 0


class TestExplorerIntegration:
    def test_cluster_backend_sweep(self):
        report = run_check(
            CheckConfig(seed=7, schedules=12, backends=("cluster",))
        )
        assert report.ok, report.summary_lines()
        assert report.per_backend == {"cluster": 12}
        assert report.oracle_stats.equivalence_checks > 50
        assert report.oracle_stats.detection_checks > 0

    def test_cluster_backend_is_deterministic(self):
        config = CheckConfig(seed=11, schedules=8, backends=("cluster",))
        assert (
            run_check(config).trace_digest
            == run_check(config).trace_digest
        )
