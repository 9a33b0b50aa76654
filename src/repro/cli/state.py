"""``inspect`` / ``detect`` / ``graph``: commands over a state file."""

from __future__ import annotations

from ..core.detection import detect_once
from ..core.hw_twbg import build_graph
from ..core.notation import load_table
from ..core.serialize import loads as table_loads
from ..core.trace import format_trace, trace_detection
from ..lockmgr.introspect import render_report
from ..lockmgr.lock_table import LockTable
from . import parse_costs


def read_table(path: str) -> LockTable:
    """Load a lock table from a notation or JSON file."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        return table_loads(text)
    return load_table(LockTable(), text)


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
        result = detect_once(table, costs, allow_tdr2=not args.no_tdr2)
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
