"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``inspect FILE``
    Load a lock-table state (paper notation ``.txt`` or JSON dump) and
    print the operator report: resources, blocked transactions with
    explanations, deadlock cycles.
``detect FILE``
    Run one periodic detection-resolution pass on the state and print
    the resolutions, optionally with the full walk trace (``--trace``)
    and per-transaction costs (``--cost 3=1.5``).
``graph FILE``
    Print the H/W-TWBG edges, or Graphviz with ``--dot``.
``simulate``
    Run the closed-system simulator with a chosen deadlock strategy and
    print the metric summary.
``compare``
    The detector shoot-out: all strategies on identical workloads.
``profile``
    Run a simulator workload under :mod:`cProfile` and print the
    hottest functions; ``--out`` saves the raw pstats file for
    ``snakeviz``/``pstats`` digging.
``serve``
    Run the lock manager as a network service
    (:mod:`repro.service`): an asyncio TCP server with per-session
    leases and a periodic detector task.
``remote ACTION``
    Introspect a running lock service: ``report``, ``graph``, ``dump``,
    ``stats``, ``metrics`` (Prometheus text exposition), ``log`` or an
    explicit ``detect`` pass.
``top``
    Live operator dashboard over a running lock service: grants/s,
    blocked transactions, hottest resources, last detector pass.
``trace-export``
    Pull the server's request-lifecycle spans as JSON-lines.
``incidents ACTION FILE``
    Browse a deadlock incident log (``serve --incident-log``):
    ``list`` the records, ``show`` one decision report, or ``graph``
    a cycle as Graphviz DOT.

States given as ``.json`` files must be :mod:`repro.core.serialize`
dumps; anything else is parsed as the paper's notation, e.g.::

    R1(S): Holder((T1, S, NL)) Queue((T2, X) (T3, S))
    R2(S): Holder((T2, S, NL) (T3, S, NL)) Queue((T1, X))
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.report import render_summaries
from .core.hw_twbg import build_graph
from .core.notation import load_table
from .core.serialize import loads as table_loads
from .core.trace import format_trace, trace_detection
from .core.victim import CostTable
from .lockmgr.introspect import render_report
from .lockmgr.lock_table import LockTable

#: Strategy factories by CLI name (built lazily to keep startup light).
STRATEGIES = {
    "park-periodic": lambda: _baselines().ParkPeriodicStrategy(),
    "park-continuous": lambda: _baselines().ParkContinuousStrategy(),
    "park-adaptive": lambda: _baselines().AdaptivePeriodicStrategy(),
    "nowait": lambda: _baselines().NoWaitStrategy(),
    "agrawal": lambda: _baselines().AgrawalStrategy(),
    "jiang": lambda: _baselines().JiangStrategy(),
    "elmagarmid": lambda: _baselines().ElmagarmidStrategy(),
    "wfg": lambda: _baselines().WFGStrategy(continuous=True),
    "timeout": lambda: _baselines().TimeoutStrategy(15.0),
    "wound-wait": lambda: _baselines().WoundWaitStrategy(),
    "wait-die": lambda: _baselines().WaitDieStrategy(),
}


def _baselines():
    from . import baselines

    return baselines


def read_table(path: str) -> LockTable:
    """Load a lock table from a notation or JSON file."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        return table_loads(text)
    return load_table(LockTable(), text)


def parse_cost_pairs(pairs: List[str]) -> dict:
    costs = {}
    for pair in pairs:
        tid, _, value = pair.partition("=")
        costs[int(tid.lstrip("Tt"))] = float(value)
    return costs


def parse_costs(pairs: List[str]) -> CostTable:
    return CostTable(parse_cost_pairs(pairs))


class ServeConfigError(ValueError):
    """An impossible ``serve`` flag combination.

    ``cmd_serve`` turns this into a clear message on stderr and exit
    code 2 — the argparse convention for bad usage."""


class ServeConfig:
    """The validated, normalised ``serve`` topology knobs."""

    def __init__(self, policy, continuous, shards, workers, warnings,
                 unix=None):
        self.policy = policy
        self.continuous = continuous
        self.shards = shards
        self.workers = workers
        self.unix = unix
        self.warnings = tuple(warnings)


def validate_serve_config(
    policy: Optional[str] = None,
    continuous: bool = False,
    shards: Optional[int] = None,
    workers: int = 1,
    period: float = 0.5,
    unix: Optional[str] = None,
    environ=None,
) -> ServeConfig:
    """Validate one ``serve`` flag set; the single place topology
    combinations are judged.

    Explicitly contradictory flags raise :class:`ServeConfigError`
    (the old scattered checks silently "won" one flag over another);
    environment-derived defaults that merely lose to an explicit flag
    demote to warnings, so an exported ``REPRO_SHARDS``/
    ``REPRO_POLICY`` never breaks a command line that used to work.
    Returns the normalised :class:`ServeConfig` with the *effective*
    policy name resolved (explicit flag > environment > default).
    """
    from .lockmgr.sharded import SHARDS_ENV
    from .policy import POLICIES, POLICY_ENV

    env = os.environ if environ is None else environ
    warnings: List[str] = []

    env_policy = (env.get(POLICY_ENV) or "").strip() or None
    effective = policy if policy is not None else env_policy
    if effective is not None and effective not in POLICIES:
        source = (
            "--policy" if policy is not None
            else "{}=".format(POLICY_ENV) + str(env_policy)
        )
        raise ServeConfigError(
            "unknown detection policy {!r} (from {}); known policies: "
            "{}".format(effective, source, ", ".join(sorted(POLICIES)))
        )
    if continuous:
        if policy is not None and policy != "continuous":
            raise ServeConfigError(
                "--continuous contradicts --policy {}: the continuous "
                "companion detector is itself a policy; drop one of "
                "the two flags".format(policy)
            )
        if policy is None and env_policy not in (None, "continuous"):
            warnings.append(
                "--continuous overrides {}={}".format(
                    POLICY_ENV, env_policy
                )
            )
        effective = "continuous"

    wants_continuous = effective == "continuous"
    if wants_continuous:
        if workers > 1:
            raise ServeConfigError(
                "the continuous policy needs the whole wait graph in "
                "one process; it cannot run with --workers "
                "{}".format(workers)
            )
        if shards is not None and shards > 1:
            raise ServeConfigError(
                "the continuous policy needs the whole wait graph in "
                "one process; it cannot run with --shards "
                "{}".format(shards)
            )
        env_shards = (env.get(SHARDS_ENV) or "").strip()
        if shards is None and env_shards.isdigit() and int(env_shards) > 1:
            warnings.append(
                "the continuous policy forces one shard; ignoring "
                "{}={}".format(SHARDS_ENV, env_shards)
            )
            shards = 1

    if workers < 1:
        raise ServeConfigError(
            "--workers must be at least 1 (got {})".format(workers)
        )
    if shards is not None and shards < 1:
        raise ServeConfigError(
            "--shards must be at least 1 (got {})".format(shards)
        )
    if effective in ("adaptive", "predict") and period <= 0:
        warnings.append(
            "policy {} acts on periodic detector passes but --period "
            "{} disables the detector; it will be inert".format(
                effective, period
            )
        )
    if unix is not None and workers > 1:
        raise ServeConfigError(
            "--unix binds a single UNIX-domain socket; the cluster "
            "supervisor partitions a TCP port range, so it cannot "
            "run with --workers {}".format(workers)
        )
    return ServeConfig(
        policy=effective,
        continuous=wants_continuous,
        shards=shards,
        workers=workers,
        warnings=warnings,
        unix=unix,
    )


def cmd_inspect(args) -> int:
    table = read_table(args.file)
    print(render_report(table))
    return 0


def cmd_graph(args) -> int:
    graph = build_graph(read_table(args.file).snapshot())
    print(graph.to_dot() if args.dot else graph)
    return 0


def cmd_detect(args) -> int:
    table = read_table(args.file)
    costs = parse_costs(args.cost)
    if args.trace:
        result, trace = trace_detection(
            table, costs, allow_tdr2=not args.no_tdr2
        )
        print(format_trace(trace))
        print()
    else:
        from .core.detection import PeriodicDetector

        result = PeriodicDetector(
            table, costs, allow_tdr2=not args.no_tdr2
        ).run()
    if not result.deadlock_found:
        print("no deadlock found")
    for resolution in result.resolutions:
        print(
            "cycle {} resolved by: {}".format(
                resolution.cycle, resolution.chosen
            )
        )
    print("aborted:", result.aborted or "-")
    if result.spared:
        print("spared:", result.spared)
    if result.repositions:
        print(
            "repositioned queues:",
            ", ".join(event.rid for event in result.repositions),
        )
    print("\nresulting table:")
    print(table)
    return 0 if not result.aborted else 1


def _spec_from_args(args):
    from .sim.workload import PRESETS, WorkloadSpec

    if args.preset:
        return PRESETS[args.preset]()
    return WorkloadSpec(
        resources=args.resources,
        hotspot_resources=max(args.resources // 6, 1),
        write_fraction=args.write_fraction,
        upgrade_fraction=args.upgrade_fraction,
    )


def cmd_simulate(args) -> int:
    from .sim.runner import run_once

    spec = _spec_from_args(args)
    result = run_once(
        spec,
        STRATEGIES[args.strategy](),
        duration=args.duration,
        terminals=args.terminals,
        seed=args.seed,
        period=args.period,
    )
    summary = result.metrics.summary()
    print(
        render_summaries(
            {result.strategy: summary},
            title="simulation (duration {}, {} terminals, seed {})".format(
                args.duration, args.terminals, args.seed
            ),
        )
    )
    if args.metrics_out:
        from .obs.bench import append_record, build_record

        record = build_record(
            "simulate",
            summary,
            params={
                "strategy": args.strategy,
                "duration": args.duration,
                "terminals": args.terminals,
                "seed": args.seed,
                "period": args.period,
                "preset": args.preset or "",
            },
        )
        append_record(args.metrics_out, record)
        print("metrics record appended to {}".format(args.metrics_out))
    return 0


def cmd_compare(args) -> int:
    from .sim.runner import aggregate, compare_strategies

    spec = _spec_from_args(args)
    names = args.strategies or list(STRATEGIES)
    results = compare_strategies(
        spec,
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
    import cProfile
    import pstats

    from .sim.runner import run_once

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


def cmd_serve(args) -> int:
    import asyncio

    from .service.server import LockServer

    try:
        config = validate_serve_config(
            policy=args.policy,
            continuous=args.continuous,
            shards=args.shards,
            workers=args.workers,
            period=args.period,
            unix=args.unix,
        )
    except ServeConfigError as exc:
        print("serve: {}".format(exc), file=sys.stderr)
        return 2
    for warning in config.warnings:
        print("warning: {}".format(warning), file=sys.stderr)
    if config.workers > 1:
        return _serve_cluster(args, config)

    incident_log = None
    if args.incident_log:
        from .obs.incidents import IncidentLog

        incident_log = IncidentLog(path=args.incident_log)
    server = LockServer(
        costs=parse_costs(args.cost),
        policy=config.policy,
        period=None if args.period <= 0 else args.period,
        lease=args.lease,
        shards=config.shards,
        journal_path=args.journal,
        journal_fsync=args.journal_fsync,
        incident_log=incident_log,
    )
    if args.max_frame:
        server.max_frame = args.max_frame
    exporter = None
    if args.metrics_port is not None:
        from .obs.cluster import MetricsExporter

        exporter = MetricsExporter(
            server.core.telemetry.registry.render,
            host=args.host,
            port=args.metrics_port,
        )

    async def run() -> None:
        await server.start(args.host, args.port, unix=config.unix)
        if exporter is not None:
            exporter.start()
            print(
                "metrics exposition on http://{}:{}/metrics".format(
                    args.host, exporter.port
                ),
                flush=True,
            )
        endpoint = (
            "unix:{}".format(server.unix)
            if server.unix is not None
            else "{}:{}".format(server.host, server.port)
        )
        print(
            "lock service listening on {} "
            "(period={}, lease={}s, shards={}, policy={})".format(
                endpoint,
                server.period if server.period is not None else "off",
                server.lease,
                server.core.shards,
                server.core.policy.name,
            ),
            flush=True,
        )
        if server.recovery is not None and server.recovery.replayed:
            report = server.recovery
            print(
                "recovered from journal: {} records replayed in "
                "{:.3f}s, epoch {}, {} leases honored, {} "
                "reaped".format(
                    report.replayed,
                    report.seconds,
                    server.restart_epoch,
                    report.leases_honored,
                    report.leases_reaped,
                ),
                flush=True,
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if exporter is not None:
                exporter.close()
            await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_cluster(args, config: ServeConfig) -> int:
    import logging
    import time

    from .cluster import ClusterSupervisor

    workers = config.workers
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    supervisor = ClusterSupervisor(
        workers=workers,
        host=args.host,
        base_port=args.port,
        period=None if args.period <= 0 else args.period,
        lease=args.lease,
        costs=parse_cost_pairs(args.cost),
        journal_dir=args.journal,
        incident_log=args.incident_log,
        metrics_port=args.metrics_port,
        metrics_host=args.host,
        policy=config.policy,
        shards_per_worker=1 if config.shards is None else config.shards,
    )
    try:
        with supervisor:
            print(
                "lock cluster up: {} workers at {} "
                "(detector period={}, lease={}s, policy={})".format(
                    workers,
                    ", ".join(
                        "{}:{}".format(host, port)
                        for host, port in supervisor.endpoints()
                    ),
                    supervisor.period
                    if supervisor.period is not None
                    else "off",
                    args.lease,
                    supervisor.policy.name,
                ),
                flush=True,
            )
            if supervisor.metrics_port is not None:
                print(
                    "aggregated metrics exposition on "
                    "http://{}:{}/metrics".format(
                        args.host, supervisor.metrics_port
                    ),
                    flush=True,
                )
            if args.incident_log:
                print(
                    "incident log at {}".format(args.incident_log),
                    flush=True,
                )
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_remote(args) -> int:
    import asyncio

    from .service.admin import render_stats
    from .service.client import AsyncLockClient

    async def run() -> int:
        client = await AsyncLockClient.connect(args.host, args.port)
        try:
            if args.action == "report":
                print((await client.inspect())["report"])
            elif args.action == "graph":
                payload = await client.graph(dot=args.dot)
                print(payload["dot"] if args.dot else payload["text"])
            elif args.action == "dump":
                print((await client.dump())["text"])
            elif args.action == "stats":
                print(render_stats(await client.stats()))
            elif args.action == "metrics":
                print((await client.metrics())["text"], end="")
            elif args.action == "log":
                payload = await client.log(limit=args.limit)
                print("{} events total".format(payload["total"]))
                for event in payload["events"]:
                    print(event)
            else:  # detect
                result = await client.detect()
                if not result.deadlock_found:
                    print("no deadlock found")
                else:
                    print(
                        "resolved {} cycle(s); abort-free: {}".format(
                            len(result.resolutions), result.abort_free
                        )
                    )
                print("aborted:", result.aborted or "-")
                if result.repositions:
                    print(
                        "repositioned queues:",
                        ", ".join(
                            event.rid for event in result.repositions
                        ),
                    )
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(
            "cannot reach lock service at {}:{} ({})".format(
                args.host, args.port, exc
            ),
            file=sys.stderr,
        )
        return 1


def cmd_top(args) -> int:
    from .obs.top import parse_endpoints, run_cluster_top, run_top

    if args.cluster:
        try:
            endpoints = parse_endpoints(args.cluster)
        except ValueError as exc:
            print("bad --cluster spec: {}".format(exc), file=sys.stderr)
            return 2
        try:
            run_cluster_top(
                endpoints,
                interval=args.interval,
                iterations=1 if args.once else None,
                clear=not args.once,
                incidents_path=args.incidents,
            )
        except KeyboardInterrupt:
            pass
        return 0

    try:
        run_top(
            args.host,
            args.port,
            interval=args.interval,
            iterations=1 if args.once else None,
            clear=not args.once,
            incidents_path=args.incidents,
        )
    except (ConnectionError, OSError) as exc:
        print(
            "cannot reach lock service at {}:{} ({})".format(
                args.host, args.port, exc
            ),
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def cmd_trace_export(args) -> int:
    from .obs.top import run_trace_export

    try:
        count = run_trace_export(
            args.host, args.port, out_path=args.out, limit=args.limit
        )
    except (ConnectionError, OSError) as exc:
        print(
            "cannot reach lock service at {}:{} ({})".format(
                args.host, args.port, exc
            ),
            file=sys.stderr,
        )
        return 1
    if args.out:
        print(
            "{} span(s) written to {}".format(count, args.out),
            file=sys.stderr,
        )
    return 0


def cmd_incidents(args) -> int:
    from .obs.incidents import (
        incident_to_dot,
        load_incidents,
        render_incident,
        validate_incident,
    )

    records = load_incidents(args.file)
    if not records:
        print("no incident records in {}".format(args.file),
              file=sys.stderr)
        return 1

    def pick(records):
        """The addressed record: by id when given, else the newest."""
        if args.id:
            for record in records:
                if record.get("id") == args.id:
                    return record
            print(
                "no incident {!r} in {} ({} records)".format(
                    args.id, args.file, len(records)
                ),
                file=sys.stderr,
            )
            return None
        return records[-1]

    if args.action == "list":
        shown = records[-args.limit:] if args.limit else records
        for record in shown:
            cycles = record.get("cycles") or []
            decisions = ",".join(
                entry.get("decision", "?") for entry in cycles
            )
            problems = validate_incident(record)
            print(
                "{}  ts={:<14.3f} source={:<8} cycles={} [{}] "
                "aborted={} {}".format(
                    record.get("id", "?"),
                    record.get("ts", 0.0),
                    record.get("source", "?"),
                    len(cycles),
                    decisions,
                    record.get("aborted") or "-",
                    "INVALID" if problems else "",
                ).rstrip()
            )
        print(
            "{} of {} record(s) shown from {}".format(
                len(shown), len(records), args.file
            ),
            file=sys.stderr,
        )
        return 0

    record = pick(records)
    if record is None:
        return 1
    if args.action == "show":
        print(render_incident(record))
        for problem in validate_incident(record):
            print("schema problem: " + problem, file=sys.stderr)
        return 0
    # graph
    print(incident_to_dot(record))
    return 0


def cmd_check(args) -> int:
    from .check import CheckConfig, run_check
    from .check.artifact import load_artifact, replay_artifact

    if args.replay:
        artifact = load_artifact(args.replay)
        outcome = replay_artifact(artifact, tail=args.tail)
        print(
            "replaying {} schedule (seed {}, {} decisions)".format(
                artifact.backend, artifact.seed, len(artifact.decisions)
            )
        )
        if args.trace:
            print("\n".join(outcome.trace))
        print(outcome.result.summary())
        if artifact.failure and not outcome.reproduced:
            print("recorded failure did NOT reproduce")
            return 1
        return 0 if outcome.result.ok else 1

    backends = args.backends or None
    config = CheckConfig(
        seed=args.seed,
        schedules=args.schedules,
        backends=tuple(backends) if backends else ("concurrent", "service"),
        actors=args.actors,
        preset=args.preset,
        faults=not args.no_faults,
        exhaustive=args.exhaustive,
        max_failures=args.max_failures,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
    )
    report = run_check(config, log=lambda line: print(line, flush=True))
    print("\n".join(report.summary_lines()))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="H/W-TWBG deadlock detection and resolution "
        "(Park 1991/1992 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    inspect_cmd = commands.add_parser(
        "inspect", help="report on a lock-table state file"
    )
    inspect_cmd.add_argument("file")
    inspect_cmd.set_defaults(run=cmd_inspect)

    graph_cmd = commands.add_parser(
        "graph", help="print the H/W-TWBG of a state file"
    )
    graph_cmd.add_argument("file")
    graph_cmd.add_argument(
        "--dot", action="store_true", help="emit Graphviz"
    )
    graph_cmd.set_defaults(run=cmd_graph)

    detect_cmd = commands.add_parser(
        "detect", help="run one periodic detection-resolution pass"
    )
    detect_cmd.add_argument("file")
    detect_cmd.add_argument(
        "--cost",
        action="append",
        default=[],
        metavar="TID=COST",
        help="victim cost for a transaction (repeatable)",
    )
    detect_cmd.add_argument(
        "--no-tdr2", action="store_true", help="abort-only resolution"
    )
    detect_cmd.add_argument(
        "--trace", action="store_true", help="print the Step-2 walk"
    )
    detect_cmd.set_defaults(run=cmd_detect)

    def add_sim_options(sub):
        from .sim.workload import PRESETS

        sub.add_argument("--duration", type=float, default=150.0)
        sub.add_argument("--terminals", type=int, default=6)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--period", type=float, default=5.0)
        sub.add_argument("--resources", type=int, default=36)
        sub.add_argument("--write-fraction", type=float, default=0.35)
        sub.add_argument("--upgrade-fraction", type=float, default=0.25)
        sub.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="named workload (overrides the knobs above)",
        )

    simulate_cmd = commands.add_parser(
        "simulate", help="run the closed-system simulator"
    )
    simulate_cmd.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="park-periodic"
    )
    add_sim_options(simulate_cmd)
    simulate_cmd.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="append a repro.bench/1 JSON-lines record of the summary",
    )
    simulate_cmd.set_defaults(run=cmd_simulate)

    compare_cmd = commands.add_parser(
        "compare", help="compare deadlock-handling strategies"
    )
    compare_cmd.add_argument(
        "--strategies",
        nargs="*",
        choices=sorted(STRATEGIES),
        help="subset to compare (default: all)",
    )
    compare_cmd.add_argument("--runs", type=int, default=2)
    add_sim_options(compare_cmd)
    compare_cmd.set_defaults(run=cmd_compare)

    profile_cmd = commands.add_parser(
        "profile",
        help="run a simulator workload under cProfile and print the "
        "hottest functions",
    )
    profile_cmd.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="park-periodic"
    )
    add_sim_options(profile_cmd)
    profile_cmd.add_argument(
        "--top", type=int, default=25,
        help="how many functions to print",
    )
    profile_cmd.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "calls"],
        default="cumulative",
        help="pstats sort order",
    )
    profile_cmd.add_argument(
        "--out", metavar="PATH",
        help="also dump the raw pstats file here",
    )
    profile_cmd.set_defaults(run=cmd_profile)

    serve_cmd = commands.add_parser(
        "serve", help="run the lock manager as a network service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7411)
    serve_cmd.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="listen on a UNIX-domain socket at PATH instead of TCP "
        "(lower per-frame syscall cost for same-host clients)",
    )
    serve_cmd.add_argument(
        "--max-frame",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-frame size cap on both wire codecs (default 8 MiB); "
        "oversized frames answer a frame-too-large error",
    )
    serve_cmd.add_argument(
        "--period",
        type=float,
        default=0.5,
        help="periodic detector cadence in seconds (<=0 disables it)",
    )
    serve_cmd.add_argument(
        "--lease",
        type=float,
        default=5.0,
        help="default session lease granted to clients",
    )
    serve_cmd.add_argument(
        "--continuous",
        action="store_true",
        help="use the continuous companion detector (same as "
        "--policy continuous)",
    )
    serve_cmd.add_argument(
        "--policy",
        choices=["periodic", "continuous", "nowait", "adaptive",
                 "predict"],
        default=None,
        help="detection/resolution policy (default: REPRO_POLICY or "
        "periodic); nowait runs the deadlock-free ordered-wait lane, "
        "adaptive auto-tunes the detector period, predict warns on "
        "near-cycles",
    )
    serve_cmd.add_argument(
        "--shards",
        type=int,
        default=None,
        help="lock table shards (default: REPRO_SHARDS or 1; "
        "--continuous forces 1)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 runs the cluster supervisor with "
        "one partitioned lock server per worker on port..port+N-1 "
        "(--continuous forces 1)",
    )
    serve_cmd.add_argument(
        "--cost",
        action="append",
        default=[],
        metavar="TID=COST",
        help="victim cost for a transaction (repeatable)",
    )
    serve_cmd.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal sessions and locks to PATH and replay it on "
        "start (crash-safe restart); with --workers > 1 PATH is a "
        "directory holding one journal per worker",
    )
    serve_cmd.add_argument(
        "--journal-fsync",
        choices=["always", "batch", "never"],
        default="batch",
        help="fsync policy for the journal (default: batch — one "
        "fsync per writer pass)",
    )
    serve_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus exposition on this HTTP port (0 = "
        "ephemeral); with --workers > 1 the supervisor aggregates "
        "every worker's metrics into the one scrape point",
    )
    serve_cmd.add_argument(
        "--incident-log",
        default=None,
        metavar="PATH",
        help="append a repro.incident/1 record for every resolved "
        "deadlock to this JSON-lines file (browse with "
        "'repro incidents')",
    )
    serve_cmd.set_defaults(run=cmd_serve)

    remote_cmd = commands.add_parser(
        "remote", help="introspect a running lock service"
    )
    remote_cmd.add_argument(
        "action",
        choices=[
            "report", "graph", "dump", "stats", "metrics", "log", "detect",
        ],
    )
    remote_cmd.add_argument("--host", default="127.0.0.1")
    remote_cmd.add_argument("--port", type=int, default=7411)
    remote_cmd.add_argument(
        "--dot", action="store_true", help="emit Graphviz (graph action)"
    )
    remote_cmd.add_argument(
        "--limit", type=int, default=20, help="events to show (log action)"
    )
    remote_cmd.set_defaults(run=cmd_remote)

    top_cmd = commands.add_parser(
        "top", help="live operator dashboard over a running lock service"
    )
    top_cmd.add_argument("--host", default="127.0.0.1")
    top_cmd.add_argument("--port", type=int, default=7411)
    top_cmd.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh cadence in seconds",
    )
    top_cmd.add_argument(
        "--once", action="store_true",
        help="print one dashboard frame and exit",
    )
    top_cmd.add_argument(
        "--cluster",
        metavar="HOST:PORT,...",
        help="poll a worker fleet instead of one server and render the "
        "per-worker cluster view",
    )
    top_cmd.add_argument(
        "--incidents",
        default=None,
        metavar="PATH",
        help="also render the newest records of this incident log "
        "(serve --incident-log) under the dashboard",
    )
    top_cmd.set_defaults(run=cmd_top)

    trace_cmd = commands.add_parser(
        "trace-export",
        help="export request-lifecycle spans from a running service",
    )
    trace_cmd.add_argument("--host", default="127.0.0.1")
    trace_cmd.add_argument("--port", type=int, default=7411)
    trace_cmd.add_argument(
        "--out", metavar="PATH",
        help="write JSON-lines here instead of stdout",
    )
    trace_cmd.add_argument(
        "--limit", type=int, default=0,
        help="most recent spans to export (0 = all retained)",
    )
    trace_cmd.set_defaults(run=cmd_trace_export)

    incidents_cmd = commands.add_parser(
        "incidents",
        help="browse a deadlock incident log (repro.incident/1 "
        "JSON-lines)",
    )
    incidents_cmd.add_argument(
        "action",
        choices=["list", "show", "graph"],
        help="list records, show one report, or emit one cycle as "
        "Graphviz",
    )
    incidents_cmd.add_argument(
        "file", help="incident log written by serve --incident-log"
    )
    incidents_cmd.add_argument(
        "--id", default=None,
        help="incident id to show/graph (default: the newest)",
    )
    incidents_cmd.add_argument(
        "--limit", type=int, default=0,
        help="newest records to list (0 = all)",
    )
    incidents_cmd.set_defaults(run=cmd_incidents)

    check_cmd = commands.add_parser(
        "check",
        help="explore schedules deterministically and check the "
        "paper's theorems as step oracles",
    )
    check_cmd.add_argument("--seed", type=int, default=0)
    check_cmd.add_argument(
        "--schedules", type=int, default=200,
        help="how many schedules to explore",
    )
    check_cmd.add_argument(
        "--backends",
        nargs="*",
        choices=[
            "concurrent", "service", "races", "sharded", "cluster",
            "policy",
        ],
        help="which models to explore (default: concurrent service)",
    )
    check_cmd.add_argument("--actors", type=int, default=3)
    check_cmd.add_argument(
        "--preset", choices=["tiny-hot", "tiny-five-mode"],
        default="tiny-hot",
    )
    check_cmd.add_argument(
        "--exhaustive", action="store_true",
        help="bounded-exhaustive DFS instead of seeded-random",
    )
    check_cmd.add_argument(
        "--no-faults", action="store_true",
        help="disable service fault injection",
    )
    check_cmd.add_argument(
        "--max-failures", type=int, default=1,
        help="stop after this many failing schedules",
    )
    check_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing traces at full length",
    )
    check_cmd.add_argument(
        "--artifact-dir", default=None,
        help="directory for failing-schedule artifacts",
    )
    check_cmd.add_argument(
        "--replay", metavar="ARTIFACT",
        help="replay a saved failing-schedule artifact instead",
    )
    check_cmd.add_argument(
        "--tail", choices=["first", "error"], default="first",
        help="replay behaviour past the decision list",
    )
    check_cmd.add_argument(
        "--trace", action="store_true",
        help="print the decision trace while replaying",
    )
    check_cmd.set_defaults(run=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
