"""Experiment A3: the detection-period trade-off (Section 5's opening
discussion) — "by increasing the periodic interval, the cost of deadlock
detection decreases but it will detect deadlocks late".
"""

from repro.analysis.report import render_table
from repro.baselines import BatchedPolicy
from repro.policy import ContinuousPolicy, PeriodicPolicy
from repro.sim.runner import run_once, sweep_period
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=30,
    hotspot_resources=6,
    min_size=2,
    max_size=6,
    write_fraction=0.35,
    upgrade_fraction=0.25,
)


def test_a3_period_sweep(benchmark, record_result):
    periods = [2.0, 5.0, 10.0, 20.0, 40.0]

    def run():
        return sweep_period(
            SPEC,
            PeriodicPolicy,
            periods=periods,
            duration=200.0,
            terminals=6,
            seed=1,
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    continuous = run_once(
        SPEC,
        ContinuousPolicy(),
        duration=200.0,
        terminals=6,
        seed=1,
        period=None,
    )

    rows = []
    for result in results:
        metrics = result.metrics
        rows.append(
            [
                result.config["period"],
                metrics.detection_passes,
                round(metrics.mean_deadlock_latency, 3),
                metrics.commits,
                metrics.deadlock_aborts,
            ]
        )
    batched = run_once(
        SPEC,
        BatchedPolicy(batch_size=4),
        duration=200.0,
        terminals=6,
        seed=1,
        period=10.0,
    )
    rows.append(
        [
            "batched(4)+10",
            batched.metrics.detection_passes,
            round(batched.metrics.mean_deadlock_latency, 3),
            batched.metrics.commits,
            batched.metrics.deadlock_aborts,
        ]
    )
    rows.append(
        [
            "continuous",
            continuous.metrics.block_events,
            round(continuous.metrics.mean_deadlock_latency, 3),
            continuous.metrics.commits,
            continuous.metrics.deadlock_aborts,
        ]
    )

    passes = [r.metrics.detection_passes for r in results]
    assert passes == sorted(passes, reverse=True)
    # Latency grows with the period (allowing simulation noise between
    # adjacent points, the endpoints must order correctly).
    assert (
        results[0].metrics.mean_deadlock_latency
        <= results[-1].metrics.mean_deadlock_latency
    )

    record_result(
        "A3_period_sweep",
        render_table(
            ["period", "detection passes (checks)", "mean deadlock latency",
             "commits", "deadlock aborts"],
            rows,
            title="A3 — period sweep (duration 200, 6 terminals, seed 1)",
        )
        + "\npaper claim: longer period = fewer/cheaper detector runs but "
        "later detection; the continuous companion is the latency-zero, "
        "check-per-block extreme.",
    )
