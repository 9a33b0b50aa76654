"""Substrate validation V1: the lock-thrashing curve.

The workload model follows Agrawal, Carey and Livny's closed-system
study (the paper's reference [3]), whose signature result is that
throughput rises with the multiprogramming level, peaks, and then falls
as lock thrashing sets in.  Reproducing that curve validates the
simulator the comparative experiments run on — if the substrate did not
thrash, its deadlock measurements would be suspect.
"""

from repro.analysis.report import render_table
from repro.policy import PeriodicPolicy
from repro.sim.runner import run_once
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=20,
    hotspot_resources=4,
    hotspot_probability=0.7,
    min_size=3,
    max_size=7,
    write_fraction=0.5,
    upgrade_fraction=0.15,
    think_time=1.0,
)

LEVELS = (1, 2, 4, 8, 16, 32)


def measure(level: int, seeds=(1, 2, 3)) -> dict:
    commits = aborts = blocked = 0.0
    for seed in seeds:
        metrics = run_once(
            SPEC,
            PeriodicPolicy(),
            duration=150.0,
            terminals=level,
            seed=seed,
            period=4.0,
        ).metrics
        commits += metrics.commits
        aborts += metrics.deadlock_aborts
        blocked += metrics.blocked_time
    count = float(len(seeds))
    return {
        "mpl": level,
        "throughput": commits / count / 150.0,
        "aborts": aborts / count,
        "blocked_time": blocked / count,
    }


def test_v1_thrashing_curve(benchmark, record_result):
    rows = [measure(level) for level in LEVELS]
    benchmark.pedantic(
        measure, args=(4,), kwargs={"seeds": (1,)}, rounds=1, iterations=1
    )

    throughputs = [row["throughput"] for row in rows]
    peak_index = throughputs.index(max(throughputs))
    # The curve must rise from MPL 1 and fall from the peak to the
    # highest MPL — the thrashing signature.
    assert throughputs[peak_index] > throughputs[0]
    assert 0 < peak_index < len(LEVELS) - 1
    assert throughputs[-1] < throughputs[peak_index] * 0.9
    # Conflict indicators grow monotonically in pressure.
    assert rows[-1]["aborts"] > rows[0]["aborts"]

    record_result(
        "V1_thrashing",
        render_table(
            ["multiprogramming level", "throughput", "deadlock aborts",
             "blocked time"],
            [
                [row["mpl"], round(row["throughput"], 4), row["aborts"],
                 round(row["blocked_time"], 1)]
                for row in rows
            ],
            title="V1 — closed-system thrashing curve (3 seeds per level)",
        )
        + "\nAgrawal-Carey-Livny signature: throughput peaks at a middle "
        "multiprogramming level (here MPL={}), then lock thrashing "
        "drags it down.".format(LEVELS[peak_index]),
    )
