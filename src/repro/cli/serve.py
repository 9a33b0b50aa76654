"""``serve``: the lock service, one process or a worker cluster.

The two optional branches — the ``--metrics-port`` HTTP exporter and
the ``--workers`` supervisor — import on use: neither is part of a
plain server's process.
"""

from __future__ import annotations

import asyncio
import logging
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs.incidents import IncidentLog
from ..policy import POLICIES
from ..service.server import LockServer
from . import parse_cost_pairs, parse_costs


class ServeConfigError(ValueError):
    """An impossible ``serve`` flag combination.

    ``cmd_serve`` turns this into a clear message on stderr and exit
    code 2 — the argparse convention for bad usage."""


@dataclass(frozen=True)
class ServeConfig:
    """The validated ``serve`` topology knobs."""

    policy: str
    shards: int
    workers: int
    warnings: Tuple[str, ...]
    unix: Optional[str]


def validate_serve_config(
    policy: str = "periodic",
    shards: int = 1,
    workers: int = 1,
    period: float = 0.5,
    unix: Optional[str] = None,
) -> ServeConfig:
    """Validate one ``serve`` flag set; the single place topology
    combinations are judged.  Contradictory flags raise
    :class:`ServeConfigError`; a policy the period makes inert warns.
    """
    warnings: List[str] = []
    if policy not in POLICIES:
        raise ServeConfigError(
            "unknown detection policy {!r}; known policies: {}".format(
                policy, ", ".join(sorted(POLICIES))
            )
        )
    if policy == "continuous":
        if workers > 1:
            raise ServeConfigError(
                "the continuous policy needs the whole wait graph in "
                "one process; it cannot run with --workers "
                "{}".format(workers)
            )
        if shards > 1:
            raise ServeConfigError(
                "the continuous policy needs the whole wait graph in "
                "one process; it cannot run with --shards "
                "{}".format(shards)
            )
    if workers < 1:
        raise ServeConfigError(
            "--workers must be at least 1 (got {})".format(workers)
        )
    if shards < 1:
        raise ServeConfigError(
            "--shards must be at least 1 (got {})".format(shards)
        )
    if policy in ("adaptive", "predict") and period <= 0:
        warnings.append(
            "policy {} acts on periodic detector passes but --period "
            "{} disables the detector; it will be inert".format(
                policy, period
            )
        )
    if unix is not None and workers > 1:
        raise ServeConfigError(
            "--unix binds a single UNIX-domain socket; the cluster "
            "supervisor partitions a TCP port range, so it cannot "
            "run with --workers {}".format(workers)
        )
    return ServeConfig(
        policy=policy,
        shards=shards,
        workers=workers,
        warnings=tuple(warnings),
        unix=unix,
    )


def cmd_serve(args) -> int:
    try:
        config = validate_serve_config(
            policy=args.policy,
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
        from ..obs.cluster import MetricsExporter

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
    from ..cluster import ClusterSupervisor

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
        shards_per_worker=config.shards,
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
