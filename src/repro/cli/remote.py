"""``remote`` / ``top`` / ``trace-export``: clients of a running service."""

from __future__ import annotations

import asyncio
import sys

from ..obs.top import (
    parse_endpoints,
    run_cluster_top,
    run_top,
    run_trace_export,
)
from ..service.admin import render_stats
from ..service.client import AsyncLockClient


def _unreachable(args, exc) -> int:
    print(
        "cannot reach lock service at {}:{} ({})".format(
            args.host, args.port, exc
        ),
        file=sys.stderr,
    )
    return 1


def cmd_remote(args) -> int:
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
        return _unreachable(args, exc)


def cmd_top(args) -> int:
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
        return _unreachable(args, exc)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_trace_export(args) -> int:
    try:
        count = run_trace_export(
            args.host, args.port, out_path=args.out, limit=args.limit
        )
    except (ConnectionError, OSError) as exc:
        return _unreachable(args, exc)
    if args.out:
        print(
            "{} span(s) written to {}".format(count, args.out),
            file=sys.stderr,
        )
    return 0
