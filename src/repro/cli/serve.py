"""``serve``: the lock service process.

The optional ``--metrics-port`` HTTP exporter imports on use: it is
not part of a plain server's process.
"""

from __future__ import annotations

import asyncio
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs.incidents import IncidentLog
from ..policy import POLICIES
from ..service.server import LockServer
from . import parse_costs


class ServeConfigError(ValueError):
    """An impossible ``serve`` flag combination or value.

    ``cmd_serve`` turns this into a clear message on stderr and exit
    code 2 — the argparse convention for bad usage."""


@dataclass(frozen=True)
class ServeConfig:
    """The validated ``serve`` topology knobs."""

    policy: str
    shards: int
    warnings: Tuple[str, ...]
    unix: Optional[str]


def validate_serve_config(
    policy: str = "periodic",
    shards: int = 1,
    period: float = 0.5,
    unix: Optional[str] = None,
    lease: float = 5.0,
    max_frame: Optional[int] = None,
) -> ServeConfig:
    """Validate one ``serve`` flag set; the single place topology
    combinations and flag values are judged.  Contradictory flags and
    impossible values raise :class:`ServeConfigError`; a policy the
    period makes inert warns.
    """
    warnings: List[str] = []
    if policy not in POLICIES:
        raise ServeConfigError(
            "unknown detection policy {!r}; known policies: {}".format(
                policy, ", ".join(sorted(POLICIES))
            )
        )
    if policy == "continuous" and shards > 1:
        raise ServeConfigError(
            "the continuous policy needs the whole wait graph in one "
            "shard; it cannot run with --shards {}".format(shards)
        )
    if shards < 1:
        raise ServeConfigError(
            "--shards must be at least 1 (got {})".format(shards)
        )
    if not math.isfinite(period):
        raise ServeConfigError(
            "--period must be a finite number of seconds (got {})".format(
                period
            )
        )
    # The wire's ``lease`` field takes the same values
    # (``protocol.seconds_field``).
    if not 0 <= lease < math.inf:
        raise ServeConfigError(
            "--lease must be a finite, non-negative number of seconds "
            "(got {})".format(lease)
        )
    if max_frame is not None and max_frame < 1:
        raise ServeConfigError(
            "--max-frame must be at least 1 byte (got {})".format(max_frame)
        )
    if policy == "adaptive" and period <= 0:
        warnings.append(
            "policy adaptive acts on periodic detector passes but "
            "--period {} disables the detector; it will be inert".format(
                period
            )
        )
    return ServeConfig(
        policy=policy,
        shards=shards,
        warnings=tuple(warnings),
        unix=unix,
    )


def cmd_serve(args) -> int:
    try:
        config = validate_serve_config(
            policy=args.policy,
            shards=args.shards,
            period=args.period,
            unix=args.unix,
            lease=args.lease,
            max_frame=args.max_frame,
        )
    except ServeConfigError as exc:
        print("serve: {}".format(exc), file=sys.stderr)
        return 2
    for warning in config.warnings:
        print("warning: {}".format(warning), file=sys.stderr)

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
    if args.max_frame is not None:
        server.max_frame = args.max_frame
    exporter = None
    if args.metrics_port is not None:
        from ..obs.exporter import MetricsExporter

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
