"""What each ``python -m repro <command>`` process loads.

Every case runs a child interpreter (``tools/import_closure.py``): the
command line is parsed and its handler resolved as ``repro.cli.main``
does — for ``serve`` the handler also runs, up to where the event loop
would start — and the child's ``sys.modules`` is held to the command's
forbidden prefixes.  The serve closure is also counted, a ratchet in
the style of the ballast tripwires: it may shrink, not grow.
"""

import os
import re
import subprocess
import sys

import pytest

from tests.test_tools import load_tool

tool = load_tool("import_closure")

#: The plain serve closure may hold this many ``repro`` modules and
#: source lines (49 / 14.5k when written; 73 / 18.1k at the parent,
#: which also loaded numpy).
SERVE_MODULES_MAX = 50
SERVE_LINES_MAX = 14600
#: Peak resident set of a real server at its first reply (26.1 MB when
#: written, 39.3 at the parent).
FIRST_REPLY_HWM_MB_MAX = 30.0


@pytest.fixture(scope="module")
def serve_closure():
    return tool.closure(["serve"])


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--journal", "{tmp}/journal.jsonl"],
        ["serve", "--incident-log", "{tmp}/incidents.jsonl"],
        ["serve", "--metrics-port", "0"],
        ["remote", "stats"],
        ["top"],
        ["trace-export"],
        ["incidents", "list", "no-such-file"],
        ["check"],
        ["import"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_command_holds_no_forbidden_module(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    modules, _ = tool.closure(argv)
    assert "repro" in modules
    assert tool.forbidden_hits(argv[0], modules) == []


def test_plain_serve_holds_no_forbidden_module(serve_closure):
    modules, _ = serve_closure
    assert "repro.service.server" in modules
    assert tool.forbidden_hits("serve", modules) == []


def test_a_forbidden_module_is_reported():
    assert tool.forbidden_hits(
        "serve", ["repro.simulator", "repro.sim", "repro.sim.engine", "numpy"]
    ) == ["numpy", "repro.sim", "repro.sim.engine"]


def test_serve_closure_ratchet(serve_closure):
    table = tool.by_package(*serve_closure)
    modules, lines, _ = tool.repro_totals(table)
    assert modules <= SERVE_MODULES_MAX, sorted(
        name for name in serve_closure[0] if name.startswith("repro")
    )
    assert lines <= SERVE_LINES_MAX, table


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc"
)
def test_first_reply_resident_set():
    from repro.service import RemoteLockManager

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=dict(os.environ, PYTHONPATH=tool.SRC),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stdout.readline()
        port = int(re.search(r"listening on [\d.]+:(\d+)", banner).group(1))
        with RemoteLockManager("127.0.0.1", port):  # connects: one hello
            with open("/proc/{}/status".format(server.pid)) as status:
                peak_kb = int(
                    re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1)
                )
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()
    assert peak_kb / 1024.0 <= FIRST_REPLY_HWM_MB_MAX
