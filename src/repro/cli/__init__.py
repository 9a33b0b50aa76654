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
from importlib import import_module
from typing import List, Optional

from ..core.victim import CostTable

#: What ``simulate``/``compare``/``profile`` accept: the key sets of
#: ``repro.cli.simulate.STRATEGIES`` and ``repro.sim.workload.PRESETS``,
#: spelled out so that building the parser loads neither (a test holds
#: them equal).
STRATEGY_NAMES = (
    "agrawal", "elmagarmid", "jiang", "nowait", "park-adaptive",
    "park-continuous", "park-periodic", "timeout", "wait-die", "wfg",
    "wound-wait",
)
PRESET_NAMES = (
    "conversion-heavy", "five-mode", "high-contention", "low-contention",
)

#: Names that moved into a handler module and are still importable from
#: here — on first use, so that importing the package loads no handler.
_MOVED = {
    "read_table": "state:read_table",
    "ServeConfigError": "serve:ServeConfigError",
    "validate_serve_config": "serve:validate_serve_config",
}


def __getattr__(name: str):
    if name in _MOVED:
        return load_handler(_MOVED[name])
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name)
    )


def load_handler(spec: str):
    """The function a subparser's ``"module:function"`` string names;
    ``module`` is a sibling of this file and is imported here, on
    dispatch — a command loads its own handler module and no other."""
    module, _, function = spec.partition(":")
    return getattr(import_module("." + module, __name__), function)


def parse_costs(pairs: List[str]) -> CostTable:
    costs = {}
    for pair in pairs:
        tid, _, value = pair.partition("=")
        costs[int(tid.lstrip("Tt"))] = float(value)
    return CostTable(costs)


def count(text: str) -> int:
    """A ``--limit`` (``0`` = all), never a negative slice."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError("a limit is a count (0 = all)")
    return int(text)


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
    inspect_cmd.set_defaults(run="state:cmd_inspect")

    graph_cmd = commands.add_parser(
        "graph", help="print the H/W-TWBG of a state file"
    )
    graph_cmd.add_argument("file")
    graph_cmd.add_argument(
        "--dot", action="store_true", help="emit Graphviz"
    )
    graph_cmd.set_defaults(run="state:cmd_graph")

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
    detect_cmd.set_defaults(run="state:cmd_detect")

    def add_sim_options(sub):
        sub.add_argument("--duration", type=float, default=150.0)
        sub.add_argument("--terminals", type=int, default=6)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--period", type=float, default=5.0)
        sub.add_argument("--resources", type=int, default=36)
        sub.add_argument("--write-fraction", type=float, default=0.35)
        sub.add_argument("--upgrade-fraction", type=float, default=0.25)
        sub.add_argument(
            "--preset",
            choices=PRESET_NAMES,
            help="named workload (overrides the knobs above)",
        )

    simulate_cmd = commands.add_parser(
        "simulate", help="run the closed-system simulator"
    )
    simulate_cmd.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="park-periodic"
    )
    add_sim_options(simulate_cmd)
    simulate_cmd.set_defaults(run="simulate:cmd_simulate")

    compare_cmd = commands.add_parser(
        "compare", help="compare deadlock-handling strategies"
    )
    compare_cmd.add_argument(
        "--strategies",
        nargs="*",
        choices=STRATEGY_NAMES,
        help="subset to compare (default: all)",
    )
    compare_cmd.add_argument("--runs", type=int, default=2)
    add_sim_options(compare_cmd)
    compare_cmd.set_defaults(run="simulate:cmd_compare")

    profile_cmd = commands.add_parser(
        "profile",
        help="run a simulator workload under cProfile and print the "
        "hottest functions",
    )
    profile_cmd.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="park-periodic"
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
    profile_cmd.set_defaults(run="simulate:cmd_profile")

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
        "--policy",
        choices=["periodic", "continuous", "nowait", "adaptive"],
        default="periodic",
        help="detection/resolution policy (default: periodic); nowait "
        "runs the deadlock-free ordered-wait lane, adaptive auto-tunes "
        "the detector period",
    )
    serve_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        help="lock table shards (default: 1; the continuous policy "
        "needs 1)",
    )
    serve_cmd.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal sessions and locks to PATH and replay it on "
        "start (crash-safe restart)",
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
        "ephemeral)",
    )
    serve_cmd.add_argument(
        "--incident-log",
        default=None,
        metavar="PATH",
        help="append a repro.incident/1 record for every resolved "
        "deadlock to this JSON-lines file (browse with "
        "'repro incidents')",
    )
    serve_cmd.set_defaults(run="serve:cmd_serve")

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
        "--limit", type=count, default=20, help="events to show (log action)"
    )
    remote_cmd.set_defaults(run="remote:cmd_remote")

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
        "--incidents",
        default=None,
        metavar="PATH",
        help="also render the newest records of this incident log "
        "(serve --incident-log) under the dashboard",
    )
    top_cmd.set_defaults(run="remote:cmd_top")

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
        "--limit", type=count, default=0,
        help="most recent spans to export (0 = all retained)",
    )
    trace_cmd.set_defaults(run="remote:cmd_trace_export")

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
        "--limit", type=count, default=0,
        help="newest records to list (0 = all)",
    )
    incidents_cmd.set_defaults(run="incidents:cmd_incidents")

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
    check_cmd.set_defaults(run="check:cmd_check")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return load_handler(args.run)(args)

