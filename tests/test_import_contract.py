"""What each ``python -m repro <command>`` process loads.

Every case runs a child interpreter (``tools/import_closure.py``): the
command line is parsed and its handler resolved as ``repro.cli.main``
does — for ``serve`` the handler also runs, up to where the event loop
would start — and the child's ``sys.modules`` is held to the command's
forbidden prefixes.  The serve closure is also counted, a ratchet in
the style of the ballast tripwires: it may shrink, not grow.
"""

import importlib
import os
import re
import subprocess
import sys

import pytest

from tests.test_tools import load_tool

tool = load_tool("import_closure")

#: The plain serve closure may hold this many ``repro`` modules and
#: source lines (49 / 14.5k when written; 73 / 18.1k before it, with
#: numpy; 47 / 13.3k once ``repro.service`` imported lazily; 45 / 13.0k
#: once one lock core replaced ``LockManager``/``ConcurrentLockManager``;
#: 44 / 12 960 once ``core.batched`` became a simulator policy; 43 /
#: 12 584 once the near-cycle ``predict`` policy went; 43 / 12 578 once
#: ``UnknownTransactionError`` left ``core.errors``; 43 / 12 264 once
#: the ``snapshot`` / ``resolve`` ops left with the worker-process
#: cluster; 42 / 12 151 once ``core.continuous`` and
#: ``PeriodicDetector`` gave way to ``detect_once``; 42 / 12 047 once
#: the client-minted trace context left the request path; 42 / 11 992
#: once ``ServiceStats`` became the only flat counter block; 42 / 11 989
#: once telemetry folded a recorded stream instead of a listener chain;
#: 42 / 11 981 once the request and release path went flat; 42 /
#: 11 973 once a frame's path went flat and the client-only
#: ``RemoteDetectionResult`` left ``protocol`` for ``client``; 42 /
#: 11 824 once replies stopped carrying lock events and a batch's lock
#: sub-op went flat).
SERVE_MODULES_MAX = 42
SERVE_LINES_MAX = 11824
#: Peak resident set of a real server at its first reply (26.1 MB when
#: written, 39.3 at the parent).
FIRST_REPLY_HWM_MB_MAX = 30.0


def test_one_lock_core():
    """``LockManager``/``ConcurrentLockManager`` are names of the one
    core and its blocking facade, not classes of their own."""
    import repro
    from repro import lockmgr

    assert lockmgr.LockManager is lockmgr.ShardedLockCore
    assert lockmgr.ConcurrentLockManager is lockmgr.ShardedLockManager
    assert repro.LockManager is lockmgr.ShardedLockCore
    for gone in (
        "repro.lockmgr.manager",
        "repro.lockmgr.concurrent",
        "repro.core.incremental",
    ):
        with pytest.raises(ImportError):
            importlib.import_module(gone)


def test_one_policy_interface():
    """Every simulator scheme is a ``DetectionPolicy``: the strategy
    interface, its adapters and the batched driver are gone, and no
    baseline is a ``serve`` policy."""
    from repro import baselines
    from repro.policy import POLICIES, DetectionPolicy

    for gone in (
        "repro.baselines.base",
        "repro.baselines.park",
        "repro.baselines.nowait",
        "repro.core.batched",
    ):
        with pytest.raises(ImportError):
            importlib.import_module(gone)
    schemes = [getattr(baselines, name) for name in baselines.__all__]
    policies = [
        scheme for scheme in schemes
        if isinstance(scheme, type) and issubclass(scheme, DetectionPolicy)
    ]
    assert len(policies) == 8
    assert not set(policies) & set(POLICIES.values())


def test_no_predictive_policy():
    """The ``predict`` policy is gone, and with it every hook that fed it
    or carried its output: a pass consults the policy through these
    hooks only."""
    from repro.policy import POLICIES, DetectionPolicy

    with pytest.raises(ImportError):
        importlib.import_module("repro.policy.predict")
    assert set(POLICIES) == {"periodic", "continuous", "adaptive", "nowait"}
    hooks = {
        name for name, value in vars(DetectionPolicy).items()
        if callable(value) and not name.startswith("_")
    }
    assert hooks == {
        "bind", "on_block", "observe_pass", "current_period", "detect",
        "on_tick", "describe",
    }


def test_one_benchmark_harness():
    """The benchmark-record module is gone with the legacy
    benchmark lanes, and so are the blocking ``acquire_many`` copies
    only those lanes called; the asyncio client keeps its own."""
    from repro.service.client import AsyncLockClient, RemoteLockManager
    from repro.service.loopback import EmbeddedLockManager

    with pytest.raises(ImportError):
        importlib.import_module(".bench", "repro.obs")
    for facade in (RemoteLockManager, EmbeddedLockManager):
        assert not hasattr(facade, "acquire_many"), facade
    assert hasattr(AsyncLockClient, "acquire_many")


def test_no_multiprocess_cluster(capsys):
    """The worker-process cluster is gone: its supervisor, routing
    client and worker entry point, and the ``serve`` and ``top`` flags
    that reached them.  The in-process routed
    pass (``LocalCluster`` and the coordinator) stays."""
    from repro.cli import build_parser
    from repro.cluster import LocalCluster, run_cluster_pass

    assert LocalCluster and run_cluster_pass
    for gone in (
        "repro.cluster.supervisor",
        "repro.cluster.client",
        "repro.cluster.worker",
        "repro.obs.cluster",
    ):
        with pytest.raises(ImportError):
            importlib.import_module(gone)
    parser = build_parser()
    for command, flag, value in (
        ("serve", "workers", "2"), ("top", "cluster", "7411"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "--" + flag, value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


def test_a_client_command_may_not_hold_the_server_side():
    server_side = [
        "repro.service.core", "repro.service.journal",
        "repro.service.loopback", "repro.service.server",
    ]
    client_side = ["repro.service.client", "repro.service.wire"]
    for command in ("remote", "top"):
        hits = tool.forbidden_hits(command, server_side + client_side)
        assert hits == server_side


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
