"""The span-lifecycle completeness oracle.

Positive: ``ServiceModel`` sweeps run with telemetry attached and the
oracle passing at every full drain.  Negative: a trace left with an
open span, a non-terminal completed span, or a dangling first-block
timestamp must each produce a ``spans`` oracle failure.
"""

from __future__ import annotations

from repro.check import CheckConfig, run_check
from repro.check.oracles import check_spans
from repro.core.modes import LockMode
from repro.lockmgr.events import Blocked, Granted
from repro.obs import Span, Telemetry


def ticking_clock():
    ticks = {"now": 0.0}

    def clock() -> float:
        ticks["now"] += 0.5
        return ticks["now"]

    return clock


def granted_at_once(telemetry, tid):
    telemetry.record(Granted(tid, "R", LockMode.X, immediate=True))


class TestOracleUnit:
    def test_clean_drain_passes(self):
        telemetry = Telemetry(clock=ticking_clock())
        granted_at_once(telemetry, 1)
        telemetry.finish(1)
        assert check_spans(telemetry) == []

    def test_open_span_after_drain_fails(self):
        telemetry = Telemetry(clock=ticking_clock())
        granted_at_once(telemetry, 1)
        failures = check_spans(telemetry)
        assert any(
            failure.oracle == "spans" and "still open" in failure.detail
            for failure in failures
        )

    def test_pending_first_block_timestamp_fails(self):
        telemetry = Telemetry(clock=ticking_clock())
        telemetry.record(Blocked(2, "R", LockMode.S, conversion=False))
        telemetry.fold()
        # The span closed, the wait bookkeeping not.
        telemetry.trace.finish(2, True, 0.0, 0.0)
        failures = check_spans(telemetry)
        assert any(
            "first-block timestamps still pending" in failure.detail
            for failure in failures
        )

    def test_non_terminal_completed_span_fails(self):
        telemetry = Telemetry(clock=ticking_clock())
        granted_at_once(telemetry, 3)
        telemetry.finish(3)
        telemetry.fold()
        # Keep a span the way only a bookkeeping bug could: finished,
        # but still granted.
        (fields,) = telemetry.trace._finished()
        fields[Span.__slots__.index("status")] = "granted"
        telemetry.trace._completed.append(tuple(fields))
        failures = check_spans(telemetry)
        assert any(
            "non-terminal" in failure.detail for failure in failures
        )

    def test_disabled_telemetry_is_vacuously_clean(self):
        telemetry = Telemetry(enabled=False)
        telemetry.refused()
        assert check_spans(telemetry) == []


class TestExplorerIntegration:
    def test_service_sweep_runs_span_checks(self):
        report = run_check(
            CheckConfig(seed=9, schedules=20, backends=("service",))
        )
        assert report.ok, report.summary_lines()
        assert report.oracle_stats.span_checks > 0
        assert any(
            "span" in line for line in report.summary_lines()
        )
