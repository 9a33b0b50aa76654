"""Shared benchmark plumbing.

Every benchmark both *times* its subject (pytest-benchmark) and
*verifies* the paper claim it reproduces, writing its experiment table to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be regenerated
from a run's artifacts.
"""

from __future__ import annotations

import os
import sys

import pytest

# Some benchmarks reuse the test suite's random-state builders; make the
# repository root importable even when invoked as `pytest benchmarks/`
# (the bare `pytest` entry point does not add the CWD to sys.path).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> None:
    """Persist one experiment's table (also echoed for -s runs)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text.rstrip() + "\n")
    print("\n" + text)


@pytest.fixture
def record_result():
    return write_result


def pytest_addoption(parser):
    parser.addoption(
        "--lock-backend",
        choices=["local", "remote"],
        default="local",
        help="lock manager the service benchmark drives: the embedded "
        "thread-safe manager (local) or a RemoteLockManager talking to "
        "a loopback lock server (remote)",
    )
    parser.addoption(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append one repro.bench/1 JSON-lines record per benchmark "
        "(summary numbers plus an optional registry snapshot) to PATH",
    )


@pytest.fixture
def record_metrics(request):
    """Append a structured ``repro.bench/1`` record when ``--metrics-out``
    was given; a silent no-op otherwise.

    Call as ``record_metrics(bench, summary, metrics=..., params=...)``.
    """
    path = request.config.getoption("--metrics-out")

    def record(bench, summary, metrics=None, params=None):
        if path is None:
            return None
        from repro.obs.bench import append_record, build_record

        record = build_record(
            bench, summary, metrics=metrics, params=params
        )
        append_record(path, record)
        return record

    return record


@pytest.fixture
def lock_manager_factory(request):
    """A zero-argument factory for a blocking lock manager, selected by
    ``--lock-backend``.  Injected so the same closed-loop workload
    (:func:`repro.sim.realtime.run_realtime`) measures either backend."""
    backend = request.config.getoption("--lock-backend")
    if backend == "local":
        from repro.lockmgr import ShardedLockManager

        yield lambda: ShardedLockManager(period=0.05)
        return
    from repro.service import LoopbackServer, RemoteLockManager

    with LoopbackServer(period=0.05) as server:
        yield lambda: RemoteLockManager(server.host, server.port)
