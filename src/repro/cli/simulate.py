"""``simulate`` / ``compare`` / ``profile``: the closed-system simulator."""

from __future__ import annotations

import cProfile
import pstats
import sys

from .. import baselines
from ..analysis.report import render_summaries
from ..policy import (
    AdaptivePolicy,
    ContinuousPolicy,
    NoWaitPolicy,
    PeriodicPolicy,
)
from ..sim.runner import aggregate, compare_strategies, run_once
from ..sim.workload import PRESETS, WorkloadSpec

#: Policy factories by CLI name; ``STRATEGY_NAMES`` in the package is
#: the same key set, held in step by ``tests/test_cli.py``.
STRATEGIES = {
    "park-periodic": PeriodicPolicy,
    "park-continuous": ContinuousPolicy,
    "park-adaptive": AdaptivePolicy,
    "nowait": NoWaitPolicy,
    "agrawal": baselines.AgrawalPolicy,
    "jiang": baselines.JiangPolicy,
    "elmagarmid": baselines.ElmagarmidPolicy,
    "wfg": baselines.WFGPolicy,
    "timeout": lambda: baselines.TimeoutPolicy(15.0),
    "wound-wait": baselines.WoundWaitPolicy,
    "wait-die": baselines.WaitDiePolicy,
}


def _spec_from_args(args):
    if args.preset:
        return PRESETS[args.preset]()
    return WorkloadSpec(
        resources=args.resources,
        hotspot_resources=max(args.resources // 6, 1),
        write_fraction=args.write_fraction,
        upgrade_fraction=args.upgrade_fraction,
    )


def cmd_simulate(args) -> int:
    result = run_once(
        _spec_from_args(args),
        STRATEGIES[args.strategy](),
        duration=args.duration,
        terminals=args.terminals,
        seed=args.seed,
        period=args.period,
    )
    print(
        render_summaries(
            {result.strategy: result.metrics.summary()},
            title="simulation (duration {}, {} terminals, seed {})".format(
                args.duration, args.terminals, args.seed
            ),
        )
    )
    return 0


def cmd_compare(args) -> int:
    names = args.strategies or list(STRATEGIES)
    results = compare_strategies(
        _spec_from_args(args),
        [STRATEGIES[name] for name in names],
        duration=args.duration,
        terminals=args.terminals,
        seeds=tuple(range(args.seed, args.seed + args.runs)),
        period=args.period,
    )
    print(
        render_summaries(
            aggregate(results),
            columns=[
                "commits",
                "aborts",
                "wasted_fraction",
                "deadlocks_resolved",
                "abort_free",
                "mean_deadlock_latency",
            ],
            title="strategy comparison ({} seeds)".format(args.runs),
        )
    )
    return 0


def cmd_profile(args) -> int:
    spec = _spec_from_args(args)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_once(
        spec,
        STRATEGIES[args.strategy](),
        duration=args.duration,
        terminals=args.terminals,
        seed=args.seed,
        period=args.period,
    )
    profiler.disable()

    summary = result.metrics.summary()
    print(
        "profiled {} (duration {}, {} terminals, seed {}): "
        "{} commits, {} aborts".format(
            args.strategy,
            args.duration,
            args.terminals,
            args.seed,
            summary.get("commits", 0),
            summary.get("aborts", 0),
        )
    )
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        profiler.dump_stats(args.out)
        print("pstats profile written to {}".format(args.out))
    return 0
