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
