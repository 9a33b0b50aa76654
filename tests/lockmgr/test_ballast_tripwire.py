"""A pass costs what the waiting structure costs — counted, not timed.

One round of the benchmark's planted deadlocks
(``bench/workloads.py``) is fed to a multi-shard core and an in-process
cluster, once on an otherwise empty table and once beside thousands of
idle readers.  Everything a pass touches must be identical in both:
resources merged, ``DetectionStats`` field for field, bytes shipped per
worker — and a pass with nothing blocked must copy nothing at all.
"""

import dataclasses
import json
from unittest import mock

import pytest

from bench.workloads import planted_round
from repro.cluster import LocalCluster
from repro.core.modes import LockMode, parse_mode
from repro.core.requests import ResourceState
from repro.lockmgr.sharded import ShardedLockCore

BALLAST = 4096


def sharded():
    return ShardedLockCore(shards=4, policy="periodic")


def clustered():
    return LocalCluster(workers=2, policy="periodic", wire="json")


def load_ballast(manager, count=BALLAST):
    for index in range(count):
        assert manager.lock(
            index + 1, "b{}".format(index), LockMode.S
        ).granted


def plant(manager):
    """Plant round 0 of seed 7; returns the resources somebody waits at."""
    waiting = set()
    for deadlock in planted_round(7, 0):
        for tid, rid, mode, granted in deadlock.requests:
            assert manager.lock(tid, rid, parse_mode(mode)).granted == granted
            if not granted:
                waiting.add(rid)
    return waiting


def payload_sizes(cluster):
    """JSON bytes of each worker's ``snapshot`` payload, less the
    fields whose *digits* move with history (serialization time, and
    the first-lock numbers and mutation epochs, which keep counting
    past the ballast)."""
    sizes = []
    for core in cluster.cores:
        payload = core.snapshot_payload()
        del payload["seconds"]
        payload["sequence"] = dict.fromkeys(payload["sequence"], 0)
        payload["epochs"] = [0] * len(payload["epochs"])
        sizes.append(len(json.dumps(payload)))
    return sizes


@pytest.mark.parametrize("build", [sharded, clustered])
def test_pass_reads_the_waiting_structure_only(build):
    bare, loaded = build(), build()
    load_ballast(loaded)
    waiting = plant(bare)
    assert plant(loaded) == waiting
    ours, theirs = loaded.detect(), bare.detect()
    assert ours.routing.merged_resources == len(waiting)
    assert theirs.routing.merged_resources == len(waiting)
    assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
    assert ours.stats.cycles_found == 8
    assert ours.aborted == theirs.aborted
    assert not loaded.deadlocked()


def test_worker_payload_size_is_independent_of_the_ballast():
    sizes = []
    for ballast in (0, 512, BALLAST):
        cluster = clustered()
        load_ballast(cluster, ballast)
        plant(cluster)
        sizes.append(payload_sizes(cluster))
    assert sizes[0] == sizes[1] == sizes[2]
    assert all(size > 0 for size in sizes[0])


@pytest.mark.parametrize("build", [sharded, clustered])
def test_clean_pass_copies_no_resource_state(build):
    manager = build()
    load_ballast(manager)
    with mock.patch.object(
        ResourceState, "copy", side_effect=AssertionError("row copied")
    ):
        result = manager.detect()
    assert not result.deadlock_found
    assert result.routing.merged_resources == 0
    if build is clustered:
        empty = clustered()
        assert payload_sizes(manager) == payload_sizes(empty)
