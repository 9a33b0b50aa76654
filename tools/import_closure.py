#!/usr/bin/env python
"""What one ``python -m repro <command>`` process imports, and what it
must not.

A child interpreter parses the command line with ``build_parser()`` and
resolves the handler the way ``repro.cli.main`` does; for ``serve`` it
also runs the handler up to the point the event loop would start, so
that the imports a flag pulls in (``--metrics-port``, ``--journal``,
``--incident-log``) are counted.  ``import`` stands for a bare
``import repro``.  The child runs under ``-X importtime``; the report
is, per ``repro`` package (and for numpy and everything else): modules,
source lines, and summed import self-time.

Exits 1 when the closure holds a module the command's contract forbids
(``FORBIDDEN``; ``tests/test_import_contract.py`` holds the same table
to every command).  ``--src`` points the child at another checkout, e.g.
the parent commit, to price a difference.

Usage::

    python tools/import_closure.py serve
    python tools/import_closure.py serve --metrics-port 0
    python tools/import_closure.py --src ../parent/src remote stats
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Packages no service process has a use for.
OFFLINE = (
    "numpy", "repro.analysis", "repro.baselines", "repro.sim", "repro.db",
    "repro.mgl", "repro.core.costs", "repro.check",
)
#: What a client of a running server has no use for: the server side
#: of ``repro.service`` (``repro.service``'s lazy ``__init__`` keeps
#: these out of a process that only imports the client).
SERVER_SIDE = (
    "repro.service.server", "repro.service.core", "repro.service.journal",
    "repro.service.loopback",
)
#: Module-name prefixes a command's process must not hold.
FORBIDDEN = {
    "serve": OFFLINE,
    "remote": OFFLINE + SERVER_SIDE,
    "top": OFFLINE + SERVER_SIDE,
    "trace-export": OFFLINE,
    "incidents": OFFLINE,
    "check": ("numpy",),
    "import": ("numpy", "asyncio", "repro.service", "repro.obs"),
}

PROBE = """
import json, sys
argv = sys.argv[1:]
if argv == ["import"]:
    import repro
else:
    from repro.cli import build_parser
    args = build_parser().parse_args(argv)
    handler = args.run
    if isinstance(handler, str):  # a one-file cli.py holds the function
        from repro.cli import load_handler
        handler = load_handler(handler)
    if argv[0] == "serve":
        if args.workers > 1:
            sys.exit("import_closure: serve --workers forks; not probed")
        import asyncio
        asyncio.run = lambda coroutine: coroutine.close()
        handler(args)
print(json.dumps({
    name: getattr(module, "__file__", None)
    for name, module in sys.modules.items()
}), file=sys.__stdout__)
"""

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")


def closure(
    argv: List[str], src: str = SRC
) -> Tuple[Dict[str, Optional[str]], Dict[str, int]]:
    """``(modules, self_us)`` of the child: every ``sys.modules`` name
    with its file, and ``-X importtime`` self-microseconds by module."""
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PROBE] + list(argv),
        env=env, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        raise RuntimeError(
            "probe of {!r} failed:\n{}".format(argv, child.stderr[-2000:])
        )
    modules = json.loads(child.stdout.splitlines()[-1])
    self_us = {}
    for line in child.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            self_us[match.group(2)] = int(match.group(1))
    return modules, self_us


def forbidden_hits(command: str, modules) -> List[str]:
    return sorted(
        name for name in modules
        for prefix in FORBIDDEN[command]
        if name == prefix or name.startswith(prefix + ".")
    )


def group_of(name: str) -> str:
    parts = name.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    return "numpy" if parts[0] == "numpy" else "(stdlib, other)"


def by_package(modules, self_us) -> Dict[str, List[int]]:
    """``{group: [modules, source lines, self µs]}``; lines are counted
    for ``repro`` modules only."""
    table = defaultdict(lambda: [0, 0, 0])
    for name, path in modules.items():
        row = table[group_of(name)]
        row[0] += 1
        row[2] += self_us.get(name, 0)
        if name.split(".")[0] == "repro" and path:
            with open(path) as handle:
                row[1] += sum(1 for _ in handle)
    return dict(table)


def repro_totals(table) -> List[int]:
    """``[modules, source lines, self µs]`` over the ``repro`` groups."""
    ours = [row for group, row in table.items() if group.startswith("repro")]
    return [sum(column) for column in zip(*ours)]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    src = SRC
    if argv[:1] == ["--src"]:
        src = os.path.abspath(argv[1])
        argv = argv[2:]
    if not argv or argv[0] not in FORBIDDEN:
        print(__doc__.strip().split("Usage::")[1], file=sys.stderr)
        print("commands: " + " ".join(FORBIDDEN), file=sys.stderr)
        return 2
    modules, self_us = closure(argv, src)
    table = by_package(modules, self_us)
    print("{:<22}{:>9}{:>9}{:>10}".format(
        "package", "modules", "lines", "self ms"
    ))
    for group in sorted(table, key=lambda g: (not g.startswith("repro"), g)):
        count, lines, micros = table[group]
        print("{:<22}{:>9}{:>9}{:>10.1f}".format(
            group, count, lines or "", micros / 1000.0
        ))
    count, lines, micros = repro_totals(table)
    print("{:<22}{:>9}{:>9}{:>10.1f}".format(
        "repro, total", count, lines, micros / 1000.0
    ))
    print("{:<22}{:>9}{:>9}{:>10.1f}".format(
        "all imports", len(modules), "", sum(self_us.values()) / 1000.0
    ))
    hits = forbidden_hits(argv[0], modules)
    if hits:
        print(
            "FORBIDDEN in `{}`: {}".format(
                argv[0],
                ", ".join(
                    "{} ({} modules)".format(
                        prefix, sum(group_of(hit) == prefix for hit in hits)
                    )
                    for prefix in sorted(set(map(group_of, hits)))
                ),
            ),
            file=sys.stderr,
        )
        return 1
    print("import contract of `{}` holds".format(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
