"""X11: the policy trade-off sweep — detection lanes vs the policy layer.

One contention sweep, three lanes from the pluggable policy layer
measured against the paper's fixed-period detector:

* **park-periodic** at a ladder of fixed periods — the Section-5
  baseline whose interval must be picked by hand;
* **park-adaptive** — the same detector with the service's
  :class:`~repro.policy.adaptive.AdaptiveController` tuning the
  interval from pass outcomes (and switching to the continuous rooted
  check under sustained contention);
* **nowait** — the ordered deadlock-free lane: zero detector passes,
  prevention aborts instead.

Claims pinned here (the table lands in
``benchmarks/results/X11_policy_sweep.txt``, abort rates included):

* at **high contention**, nowait beats the fixed-period detector at
  the simulator's default period on throughput — immediate aborts
  cost less than deadlocks standing half a period;
* at **high contention**, park-adaptive at least matches the *best*
  fixed period in the ladder — the controller finds the hot end of
  the ladder on its own;
* at **low contention**, park-adaptive matches the best fixed period
  while running a fraction of its passes — the grow rule stops paying
  for passes that find nothing;
* nowait runs **zero** detection passes and the oracle observes
  **zero** deadlock episodes under it, at every contention level.
"""

from repro.analysis.report import render_table
from repro.policy import AdaptivePolicy, NoWaitPolicy, PeriodicPolicy
from repro.sim.runner import run_once
from repro.sim.workload import WorkloadSpec, low_contention

#: The default the closed-loop simulator runs detection at; the point
#: the nowait-vs-periodic headline claim is measured at.
DEFAULT_PERIOD = 10.0
PERIOD_LADDER = (0.5, 2.0, DEFAULT_PERIOD, 20.0)
SEEDS = (1, 2, 3)
DURATION = 300.0
TERMINALS = 8


def high_contention_spec() -> WorkloadSpec:
    """Small write-heavy hot set, cheap restarts: deadlocks form
    constantly, so detection latency dominates and block-time decisions
    (nowait, continuous) shine."""
    return WorkloadSpec(
        resources=16,
        hotspot_resources=3,
        hotspot_probability=0.8,
        min_size=2,
        max_size=4,
        write_fraction=0.8,
        upgrade_fraction=0.0,
        mean_work=0.5,
        think_time=1.0,
        restart_delay=0.2,
    )


def averaged(spec, factory, period):
    """Mean summary over the seed set (one fresh policy per run)."""
    runs = [
        run_once(
            spec,
            factory(),
            duration=DURATION,
            terminals=TERMINALS,
            seed=seed,
            period=period,
        )
        for seed in SEEDS
    ]
    keys = runs[0].metrics.summary().keys()
    mean = {
        key: sum(r.metrics.summary()[key] for r in runs) / len(runs)
        for key in keys
    }
    mean["abort_rate"] = (
        sum(r.metrics.total_aborts for r in runs) / len(runs) / DURATION
    )
    mean["deadlock_episodes"] = (
        sum(r.metrics.deadlock_episodes for r in runs) / len(runs)
    )
    return mean


def test_x11_policy_sweep(benchmark, record_result):
    specs = {
        "high-contention": high_contention_spec(),
        "low-contention": low_contention(),
    }

    def sweep():
        cells = {}
        for workload, spec in specs.items():
            for period in PERIOD_LADDER:
                cells[(workload, "park-periodic", period)] = averaged(
                    spec, PeriodicPolicy, period
                )
            cells[(workload, "park-adaptive", DEFAULT_PERIOD)] = averaged(
                spec, AdaptivePolicy, DEFAULT_PERIOD
            )
            cells[(workload, "nowait", DEFAULT_PERIOD)] = averaged(
                spec, NoWaitPolicy, DEFAULT_PERIOD
            )
        return cells

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # -- the pinned claims -------------------------------------------------
    for workload in specs:
        nowait = cells[(workload, "nowait", DEFAULT_PERIOD)]
        assert nowait["detection_passes"] == 0
        assert nowait["deadlock_episodes"] == 0
    hot_nowait = cells[("high-contention", "nowait", DEFAULT_PERIOD)]
    hot_default = cells[
        ("high-contention", "park-periodic", DEFAULT_PERIOD)
    ]
    assert hot_nowait["throughput"] > hot_default["throughput"]

    for workload in specs:
        best_fixed = max(
            cells[(workload, "park-periodic", period)]["throughput"]
            for period in PERIOD_LADDER
        )
        adaptive = cells[(workload, "park-adaptive", DEFAULT_PERIOD)]
        # "Matches or beats": within simulation noise of the best
        # hand-picked interval, without knowing the workload up front.
        assert adaptive["throughput"] >= best_fixed * 0.9
    cool_adaptive = cells[
        ("low-contention", "park-adaptive", DEFAULT_PERIOD)
    ]
    cool_best_passes = min(
        cells[("low-contention", "park-periodic", period)][
            "detection_passes"
        ]
        for period in PERIOD_LADDER
        if cells[("low-contention", "park-periodic", period)][
            "throughput"
        ]
        >= cool_adaptive["throughput"]
    )
    # Whatever fixed period reaches adaptive's throughput at low
    # contention pays at least as many passes as adaptive does.
    assert cool_adaptive["detection_passes"] <= cool_best_passes

    rows = [
        [
            workload,
            strategy,
            period,
            round(summary["throughput"], 4),
            round(summary["abort_rate"], 3),
            round(summary["detection_passes"], 1),
            round(summary["deadlock_episodes"], 1),
        ]
        for (workload, strategy, period), summary in sorted(cells.items())
    ]
    record_result(
        "X11_policy_sweep",
        render_table(
            ["workload", "strategy", "period", "throughput",
             "aborts/t.u.", "passes", "deadlock episodes"],
            rows,
            title="X11 — policy sweep (duration {}, {} terminals, "
            "seeds {})".format(DURATION, TERMINALS, list(SEEDS)),
        )
        + "\nclaims: nowait > fixed-period at the default period under "
        "high contention with zero passes and zero deadlock episodes; "
        "park-adaptive matches/beats the best fixed period at both "
        "contention levels without hand-picking the interval.",
    )
