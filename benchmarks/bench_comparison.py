"""Experiments X1, X2, X4: the paper's Section-1 critiques, measured.

X1 — Agrawal's single-representative edge delays detection: same
     workload and period, H/W-TWBG vs the reduced functional graph;
     compare ground-truth deadlock persistence.
X2 — Elmagarmid's abort-current-blocker wastes work versus min-cost TDR
     selection: compare aborts and wasted-work fraction.
X4 — Jiang's list-all-participators step is exponential: count
     elementary cycles versus the cycles the periodic walk searches.
"""

import pytest

from repro.analysis.report import render_summaries, render_table
from repro.analysis.scenarios import build_mesh, build_reader_ladder
from repro.baselines import (
    AgrawalPolicy,
    ElmagarmidPolicy,
    JiangPolicy,
    WFGPolicy,
)
from repro.baselines.jiang import list_all_cycles_through
from repro.baselines.johnson import circuit_count
from repro.baselines.wfg import adjacency
from repro.core.detection import detect_once
from repro.policy import ContinuousPolicy, PeriodicPolicy
from repro.sim.runner import aggregate, compare_strategies
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=36,
    hotspot_resources=6,
    min_size=2,
    max_size=6,
    write_fraction=0.35,
    upgrade_fraction=0.25,
)

SEEDS = (1, 2, 3)
DURATION = 150.0
COLUMNS = [
    "commits",
    "aborts",
    "wasted_fraction",
    "deadlocks_resolved",
    "abort_free",
    "mean_deadlock_latency",
]


def test_x1_detection_latency(benchmark, record_result):
    """Park periodic vs Agrawal periodic, identical period: the reduced
    graph leaves real deadlocks standing longer."""

    def run():
        results = compare_strategies(
            SPEC,
            [PeriodicPolicy, AgrawalPolicy],
            duration=DURATION,
            terminals=6,
            seeds=SEEDS,
            period=5.0,
        )
        return aggregate(results)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    park = summary["park-periodic"]
    agrawal = summary["agrawal"]
    assert (
        agrawal["mean_deadlock_latency"] >= park["mean_deadlock_latency"]
    ), "single-representative edges should not detect faster"
    record_result(
        "X1_detection_latency",
        render_summaries(
            summary,
            columns=COLUMNS,
            title="X1 — periodic detection latency (period=5, {} seeds)".format(
                len(SEEDS)
            ),
        )
        + "\npaper claim: Agrawal's one-reader-edge representation delays "
        "some detections; mean ground-truth deadlock persistence above.",
    )


def test_x2_victim_quality(benchmark, record_result):
    """Park continuous vs Elmagarmid continuous: abort-current-blocker
    aborts at least as much and wastes at least as much work."""

    def run():
        results = compare_strategies(
            SPEC,
            [ContinuousPolicy, ElmagarmidPolicy, JiangPolicy, WFGPolicy],
            duration=DURATION,
            terminals=6,
            seeds=SEEDS,
            period=None,
        )
        return aggregate(results)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in summary.values():
        row["aborts_per_deadlock"] = round(
            row["aborts"] / max(row["deadlocks_resolved"], 1), 4
        )
    park = summary["park-continuous"]
    elmagarmid = summary["elmagarmid"]
    # Raw abort counts are throughput-confounded (Park commits far more,
    # so it sees more conflicts); normalize per resolved deadlock.
    assert park["aborts_per_deadlock"] <= elmagarmid["aborts_per_deadlock"]
    assert park["wasted_fraction"] <= elmagarmid["wasted_fraction"]
    assert park["commits"] >= elmagarmid["commits"]
    assert park["abort_free"] > 0  # TDR-2 fired at least once
    record_result(
        "X2_victim_quality",
        render_summaries(
            summary,
            columns=COLUMNS + ["aborts_per_deadlock"],
            title="X2 — continuous schemes, victim policy quality",
        )
        + "\npaper claim: abort-current-blocker is 'simple but far from "
        "optimal'; min-cost TDR wastes less work, resolves some deadlocks "
        "with no abort at all (abort_free) and needs fewer aborts per "
        "deadlock.",
    )


def test_x4_cycle_enumeration_blowup(benchmark, record_result):
    """The layered-mesh family: elementary cycles grow exponentially in
    the depth while the periodic walk searches only c' <= n cycles;
    Jiang's participator listing enumerates them all."""
    rows = []
    previous_circuits = 0
    for depth in [1, 2, 3, 4, 5]:
        table, tids = build_mesh(depth, 3)
        writer = tids[-1]
        enumerated = len(list_all_cycles_through(table, writer))
        circuits = circuit_count(adjacency(table.snapshot()))
        result = detect_once(table)
        rows.append(
            [depth, len(tids), circuits, enumerated,
             result.stats.cycles_found]
        )
        assert result.stats.cycles_found <= min(
            circuits, result.stats.transactions
        )
        assert circuits >= 2 * previous_circuits  # exponential growth
        previous_circuits = circuits

    benchmark(
        lambda: list_all_cycles_through(build_mesh(4, 3)[0], 13)
    )
    record_result(
        "X4_cycle_enumeration",
        render_table(
            ["mesh depth", "n", "elementary cycles c", "Jiang enumerates",
             "Park searches c'"],
            rows,
            title="X4 — cycle listing vs bounded search (width-3 mesh)",
        )
        + "\npaper claim: listing all participators is O(3^(n/3)) in the "
        "worst case; the periodic walk touches c' <= min(c, n) cycles.",
    )
