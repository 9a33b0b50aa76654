"""Shared fixtures and Hypothesis profiles.

Fixtures: the paper's printed scenarios, both loaded verbatim from the
notation and rebuilt through real scheduler request sequences.

Profiles: every property test inherits deadline-free, too-slow-tolerant
settings from here instead of repeating them per test.  Select with
``--hypothesis-profile=ci|dev|nightly`` (or ``HYPOTHESIS_PROFILE``):

* ``ci`` (default) — the budget the PR gate runs with;
* ``dev`` — few examples, for quick local iteration;
* ``nightly`` — the deep sweep the scheduled CI job runs.

Individual tests only override ``max_examples`` when a property is
unusually expensive (exponential oracles) or deserves extra depth.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.modes import LockMode
from repro.core.notation import load_table
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable

_BASE = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=20, **_BASE)
settings.register_profile("ci", max_examples=75, **_BASE)
settings.register_profile("nightly", max_examples=400, **_BASE)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: The two resources of Example 4.1 exactly as printed (Section 4).
EXAMPLE_41 = """
R1(SIX): Holder((T1, IX, SIX) (T2, IS, S) (T3, IX, NL) (T4, IS, NL)) Queue((T5, IX) (T6, S) (T7, IX))
R2(IS): Holder((T7, IS, NL)) Queue((T8, X) (T9, IX) (T3, S) (T4, X))
"""

#: Example 5.1 as printed (Section 5; the queue short-form "T2(X)" of the
#: original is normalized, and its "T2(S)" typo corrected to T3 per
#: Figure 5.2).
EXAMPLE_51 = """
R1(S): Holder((T1, S, NL)) Queue((T2, X) (T3, S))
R2(S): Holder((T2, S, NL) (T3, S, NL)) Queue((T1, X))
"""

#: Example 3.1 after T1's blocked re-request (Section 3).  The paper's
#: display still prints the total as IX, but its own rule ("tm of Rx is
#: updated by Conv(tm, Li)") makes it Conv(IX, S) = SIX once the
#: conversion blocks; we use the rule-consistent value.
EXAMPLE_31 = """
R1(SIX): Holder((T1, IS, S) (T2, IX, NL)) Queue((T3, S) (T4, X))
"""


@pytest.fixture
def example_41_table() -> LockTable:
    return load_table(LockTable(), EXAMPLE_41)


@pytest.fixture
def example_51_table() -> LockTable:
    return load_table(LockTable(), EXAMPLE_51)


def build_example_41_by_requests() -> LockTable:
    """Reach Example 4.1's state through real scheduler requests only —
    proving the paper's figure is a reachable system state."""
    table = LockTable()
    # R2 first: T7 must hold R2 before it blocks at R1.
    assert scheduler.request(table, 7, "R2", LockMode.IS).granted
    # R1 holders.
    assert scheduler.request(table, 1, "R1", LockMode.IX).granted
    assert scheduler.request(table, 2, "R1", LockMode.IS).granted
    assert scheduler.request(table, 3, "R1", LockMode.IX).granted
    assert scheduler.request(table, 4, "R1", LockMode.IS).granted
    # Blocked conversions: T1 IX->SIX (re-requests S), T2 IS->S.
    assert not scheduler.request(table, 1, "R1", LockMode.S).granted
    assert not scheduler.request(table, 2, "R1", LockMode.S).granted
    # R1 queue.
    assert not scheduler.request(table, 5, "R1", LockMode.IX).granted
    assert not scheduler.request(table, 6, "R1", LockMode.S).granted
    assert not scheduler.request(table, 7, "R1", LockMode.IX).granted
    # R2 queue.
    assert not scheduler.request(table, 8, "R2", LockMode.X).granted
    assert not scheduler.request(table, 9, "R2", LockMode.IX).granted
    assert not scheduler.request(table, 3, "R2", LockMode.S).granted
    assert not scheduler.request(table, 4, "R2", LockMode.X).granted
    return table


def build_example_51_by_requests() -> LockTable:
    """Example 5.1 reached through real requests."""
    table = LockTable()
    assert scheduler.request(table, 1, "R1", LockMode.S).granted
    assert scheduler.request(table, 2, "R2", LockMode.S).granted
    assert scheduler.request(table, 3, "R2", LockMode.S).granted
    assert not scheduler.request(table, 2, "R1", LockMode.X).granted
    assert not scheduler.request(table, 3, "R1", LockMode.S).granted
    assert not scheduler.request(table, 1, "R2", LockMode.X).granted
    return table


@pytest.fixture
def example_41_by_requests() -> LockTable:
    return build_example_41_by_requests()


@pytest.fixture
def example_51_by_requests() -> LockTable:
    return build_example_51_by_requests()
