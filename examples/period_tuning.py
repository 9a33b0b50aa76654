"""Tuning the detection period (the trade-off Section 5 opens with).

Sweeps the periodic detector's interval on a fixed workload and prints
the cost/latency curve, with the continuous companion as the zero-latency
reference point.

Run:  python examples/period_tuning.py
"""

from repro.analysis.report import render_table
from repro.policy import ContinuousPolicy, PeriodicPolicy
from repro.sim.runner import run_once, sweep_period
from repro.sim.workload import WorkloadSpec


def main() -> None:
    spec = WorkloadSpec(
        resources=30,
        hotspot_resources=6,
        min_size=2,
        max_size=6,
        write_fraction=0.35,
        upgrade_fraction=0.25,
    )
    print("sweeping detection periods (duration 200, 6 terminals)...\n")
    results = sweep_period(
        spec,
        PeriodicPolicy,
        periods=[2.0, 5.0, 10.0, 20.0, 40.0],
        duration=200.0,
        terminals=6,
        seed=1,
    )
    continuous = run_once(
        spec, ContinuousPolicy(), duration=200.0, terminals=6,
        seed=1, period=None,
    )

    rows = []
    for result in results:
        metrics = result.metrics
        rows.append([
            result.config["period"],
            metrics.detection_passes,
            round(metrics.mean_deadlock_latency, 2),
            metrics.commits,
            metrics.deadlock_aborts,
        ])
    rows.append([
        "continuous",
        continuous.metrics.block_events,
        round(continuous.metrics.mean_deadlock_latency, 2),
        continuous.metrics.commits,
        continuous.metrics.deadlock_aborts,
    ])
    print(render_table(
        ["period", "detector runs", "mean deadlock latency", "commits",
         "deadlock aborts"],
        rows,
        title="Detection period trade-off",
    ))
    print(
        "\nShort periods detect almost as fast as the continuous scheme "
        "while paying for frequent passes; long periods leave deadlocked "
        "transactions stalled (latency grows roughly with period/2 plus "
        "queueing effects) and throughput collapses."
    )


if __name__ == "__main__":
    main()
