"""Experiment A4: victim-cost criteria (Section 5's open choice).

"There can be several criteria for deciding a cost of each transaction,
for example, number of locks it holds, starting time of it, the amount of
CPU and I/O time which has been consumed and so on."  This ablation runs
the same workload under four cost policies and measures what the choice
buys: work-based costs protect invested work (lowest wasted fraction);
unit costs degenerate to tie-breaking; age-based costs approximate work
when work accrues uniformly.
"""

from repro.analysis.report import render_table
from repro.policy import PeriodicPolicy
from repro.sim.system import SimulatedSystem
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=30,
    hotspot_resources=6,
    min_size=2,
    max_size=6,
    write_fraction=0.35,
    upgrade_fraction=0.25,
)

POLICIES = {
    "unit": lambda terminal, now: 1.0,
    "work-done": lambda terminal, now: 1.0 + terminal.attempt_work,
    "age": lambda terminal, now: 1.0 + max(now - terminal.program_started_at, 0.0),
    "restart-fair": lambda terminal, now: float(2 ** min(terminal.restarts, 12)),
}


def run_policy(name, seeds=(1, 2, 3)):
    totals = {"commits": 0, "aborts": 0, "wasted": 0.0, "useful": 0.0}
    for seed in seeds:
        system = SimulatedSystem(
            SPEC,
            PeriodicPolicy(),
            terminals=6,
            seed=seed,
            period=5.0,
            cost_policy=POLICIES[name],
        )
        metrics = system.run(duration=150.0)
        totals["commits"] += metrics.commits
        totals["aborts"] += metrics.deadlock_aborts
        totals["wasted"] += metrics.wasted_work
        totals["useful"] += metrics.useful_work
    wasted_fraction = totals["wasted"] / max(
        totals["wasted"] + totals["useful"], 1e-9
    )
    return [name, totals["commits"], totals["aborts"],
            round(wasted_fraction, 4)]


def test_a4_cost_policies(benchmark, record_result):
    rows = [run_policy(name) for name in POLICIES]
    benchmark.pedantic(
        run_policy, args=("work-done",), kwargs={"seeds": (1,)},
        rounds=1, iterations=1,
    )
    by_name = {row[0]: row for row in rows}
    # Work-protecting costs must not waste more than blind unit costs.
    assert by_name["work-done"][3] <= by_name["unit"][3] + 0.05
    record_result(
        "A4_cost_policies",
        render_table(
            ["cost policy", "commits (3 seeds)", "deadlock aborts",
             "wasted fraction"],
            rows,
            title="A4 — victim-cost criteria under the periodic detector",
        )
        + "\npaper: the cost metric is an open combination of locks held, "
        "age and consumed work; work-protecting policies waste the least.",
    )
