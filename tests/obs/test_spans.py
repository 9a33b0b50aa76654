"""Span lifecycles: request -> blocked -> granted/aborted/timed-out ->
released, dual clocks, the bounded completed ring and JSON-lines export.

Spans are written by the telemetry fold, so each test feeds a
:class:`Telemetry` what a ``ServiceCore`` step records — the service's
markers and the manager's events — and folds once per step."""

from __future__ import annotations

import json

from repro.core.modes import LockMode
from repro.lockmgr.events import Aborted, Blocked, Granted
from repro.obs import Telemetry
from repro.obs.spans import LIFECYCLE_KINDS, TERMINAL_STATES, TraceLog

X = LockMode.X


def make_telemetry(capacity: int = 4096) -> Telemetry:
    ticks = {"now": 0.0}

    def clock() -> float:
        ticks["now"] += 1.0
        return ticks["now"]

    telemetry = Telemetry(clock=clock)
    telemetry.trace = TraceLog(capacity=capacity)
    return telemetry


def step(telemetry: Telemetry, *events) -> TraceLog:
    """One step: its lock events recorded, then the fold."""
    for event in events:
        telemetry.record(event)
    telemetry.fold()
    return telemetry.trace


def granted(telemetry, tid, rid, mode=X) -> TraceLog:
    """A lock frame the manager granted at once."""
    return step(telemetry, Granted(tid, rid, mode, immediate=True))


def blocked(telemetry, tid, rid, mode=X, conversion=False) -> TraceLog:
    """A lock frame the manager blocked."""
    return step(telemetry, Blocked(tid, rid, mode, conversion))


def finish(telemetry, tid, aborted=False) -> TraceLog:
    telemetry.finish(tid, aborted)
    return step(telemetry)


class TestLifecycle:
    def test_immediate_grant_then_release(self):
        telemetry = make_telemetry()
        granted(telemetry, 1, "R")
        log = finish(telemetry, 1)
        (span,) = log.completed_spans()
        assert span.status == "released"
        assert span.terminal
        assert [event["phase"] for event in span.events] == [
            "request", "granted-immediate", "released",
        ]
        # Both clocks stamped on every event, virtual advancing by step.
        virtuals = [event["virtual"] for event in span.events]
        assert virtuals == sorted(virtuals) and virtuals[0] < virtuals[-1]
        assert all("wall" in event for event in span.events)
        assert not log.open_spans()

    def test_blocked_then_granted_then_released(self):
        telemetry = make_telemetry()
        log = blocked(telemetry, 2, "R", LockMode.S)
        assert log.open_spans()[0].kind == "queue"
        step(telemetry, Granted(2, "R", LockMode.S))
        assert log.open_spans()[0].status == "granted"  # live, not terminal
        finish(telemetry, 2)
        assert log.completed_spans()[0].status == "released"

    def test_blocked_conversion_kind(self):
        telemetry = make_telemetry()
        log = blocked(telemetry, 3, "R", LockMode.SIX, conversion=True)
        assert log.open_spans()[0].kind == "conversion"

    def test_abort_closes_every_open_span(self):
        telemetry = make_telemetry()
        granted(telemetry, 4, "R1")
        blocked(telemetry, 4, "R2")
        log = step(telemetry, Aborted(4, "deadlock victim"))
        assert {span.status for span in log.completed_spans()} == {"aborted"}
        assert not log.open_spans()

    def test_finish_aborting_closes_granted_as_aborted(self):
        telemetry = make_telemetry()
        granted(telemetry, 5, "R")
        log = finish(telemetry, 5, aborted=True)
        assert log.completed_spans()[0].status == "aborted"

    def test_one_step_stamps_one_clock_pair(self):
        telemetry = make_telemetry()
        log = step(
            telemetry,
            Granted(6, "R1", X, immediate=True),
            Granted(6, "R2", X, immediate=True),
        )
        first, second = log.open_spans()
        assert (first.wall, first.virtual) == (second.wall, second.virtual)


class TestTimeoutResume:
    def test_timeout_closes_span_resume_opens_new_one(self):
        telemetry = make_telemetry()
        blocked(telemetry, 6, "R")
        telemetry.wait_timeout(6)
        log = step(telemetry)
        (timed_out,) = log.completed_spans()
        assert timed_out.status == "timed-out"
        assert not log.open_spans()
        # Client retries: a fresh span of kind "resume", born blocked.
        telemetry.resume(6, "R", X)
        (resumed,) = step(telemetry).open_spans()
        assert resumed.kind == "resume"
        assert resumed.status == "blocked"
        assert resumed.span_id != timed_out.span_id
        step(telemetry, Granted(6, "R", X))
        finish(telemetry, 6)
        statuses = {s.span_id: s.status for s in log.completed_spans()}
        assert statuses[resumed.span_id] == "released"
        assert set(statuses.values()) <= TERMINAL_STATES

    def test_grant_after_timeout_opens_resume_span(self):
        # The sweep grants a request whose span a timeout already closed.
        telemetry = make_telemetry()
        blocked(telemetry, 7, "R")
        telemetry.wait_timeout(7)
        step(telemetry)
        (span,) = step(telemetry, Granted(7, "R", X)).open_spans()
        assert span.kind == "resume"
        assert span.status == "granted"

    def test_resume_duplicate_stamps_open_span(self):
        telemetry = make_telemetry()
        blocked(telemetry, 8, "R")
        telemetry.resume(8, "R", X)
        log = step(telemetry)
        (span,) = log.open_spans()
        assert span.events[-1]["phase"] == "resume"
        assert log.total_started == 1


class TestLogSurface:
    def test_capacity_bounds_completed_ring(self):
        telemetry = make_telemetry(capacity=3)
        for tid in range(1, 6):
            granted(telemetry, tid, "R{}".format(tid))
            log = finish(telemetry, tid)
        assert log.total_started == 5
        completed = log.completed_spans()
        assert len(completed) == 3
        assert [span.tid for span in completed] == [3, 4, 5]

    def test_export_jsonl_round_trips(self):
        telemetry = make_telemetry()
        granted(telemetry, 1, "R")
        log = blocked(telemetry, 2, "R", LockMode.S)
        lines = log.export_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["tid"] for record in records] == [1, 2]
        assert records[1]["status"] == "blocked"
        assert {"span", "tid", "rid", "mode", "kind", "status", "events"} \
            <= set(records[0])

    def test_to_dicts_limit_keeps_most_recent(self):
        telemetry = make_telemetry()
        for tid in (1, 2, 3):
            granted(telemetry, tid, "R")
            log = finish(telemetry, tid)
        recent = log.to_dicts(limit=2)
        assert [record["tid"] for record in recent] == [2, 3]

    def test_finished_spans_are_stamped_when_read(self):
        telemetry = make_telemetry()
        blocked(telemetry, 1, "R1")
        granted(telemetry, 1, "R2")
        step(telemetry, Granted(1, "R1", X))
        log = finish(telemetry, 1)
        assert [
            [event["phase"] for event in span.events]
            for span in log.completed_spans()
        ] == [
            ["request", "blocked", "granted", "released"],
            ["request", "granted-immediate", "released"],
        ]

    def test_capacity_drops_part_of_the_oldest_transaction(self):
        telemetry = make_telemetry(capacity=3)
        for tid in (1, 2, 3):
            granted(telemetry, tid, "A")
            granted(telemetry, tid, "B")
            log = finish(telemetry, tid)
        assert [(s.tid, s.rid) for s in log.completed_spans()] == [
            (2, "B"), (3, "A"), (3, "B"),
        ]


class TestEviction:
    def test_capacity_flushes_oldest_open_span_as_unfinished(self):
        telemetry = make_telemetry(capacity=2)
        granted(telemetry, 1, "R1")
        granted(telemetry, 2, "R2")
        # The third in-flight span pushes the oldest out of the open
        # table — flushed into the ring, never silently dropped.
        log = granted(telemetry, 3, "R3")
        assert log.evicted_unfinished == 1
        assert [span.tid for span in log.open_spans()] == [2, 3]
        (flushed,) = log.completed_spans()
        assert flushed.tid == 1
        assert flushed.unfinished
        assert flushed.events[-1]["phase"] == "evicted"
        # Not a terminal state: the lock was still held.
        assert not flushed.terminal

    def test_evicted_span_is_exported_with_the_marker(self):
        telemetry = make_telemetry(capacity=1)
        granted(telemetry, 1, "R1")
        log = granted(telemetry, 2, "R2")
        records = [
            json.loads(line) for line in log.export_jsonl().splitlines()
        ]
        flushed = [r for r in records if r.get("unfinished")]
        assert [record["tid"] for record in flushed] == [1]
        # Live spans carry no marker at all.
        assert "unfinished" not in records[-1]

    def test_eviction_forgets_the_open_index_entry(self):
        telemetry = make_telemetry(capacity=1)
        blocked(telemetry, 1, "R1")
        granted(telemetry, 2, "R2")
        # T1's span is gone from the open table: its later grant starts
        # a fresh resume span instead of resurrecting the flushed one.
        log = step(telemetry, Granted(1, "R1", X))
        (span,) = log.open_spans()
        assert span.kind == "resume"
        assert not span.unfinished
        assert log.evicted_unfinished == 2  # T2's was flushed in turn

    def test_eviction_does_not_scan_the_open_table(self):
        """At capacity every new span evicts one.  Finding the oldest
        must not look at every open span: count the spans any walk of
        the open index yields while 1000 spans start against a full
        table of 64."""
        looked_at = []

        class CountedIndex(dict):
            def __iter__(self):
                for tid in dict.__iter__(self):
                    looked_at.append(len(self[tid]))
                    yield tid

            keys = __iter__

            def values(self):
                for spans in dict.values(self):
                    looked_at.append(len(spans))
                    yield spans

            def items(self):
                for tid, spans in dict.items(self):
                    looked_at.append(len(spans))
                    yield tid, spans

        telemetry = make_telemetry(capacity=64)
        telemetry.trace.index = CountedIndex()
        for tid in range(64):
            granted(telemetry, tid, "R")
        del looked_at[:]
        for tid in range(64, 1064):
            log = granted(telemetry, tid, "R")
        assert sum(looked_at) <= 2 * 1000  # a scan looks at 64 per start
        assert log.evicted_unfinished == 1000
        assert sum(looked_at) <= 2 * 1000  # a scan looks at 64 per start
        # Oldest first, none dropped: the ring's tail is the last 64
        # evicted, in the order they were started.
        evicted = [span.tid for span in log.completed_spans()]
        assert evicted == list(range(1000 - 64, 1000))
        assert [span.tid for span in log.open_spans()] == list(
            range(1000, 1064)
        )

    def test_eviction_of_the_transactions_own_last_span(self):
        """The span evicted to make room may be the last open one of
        the transaction starting the new span: the new span still
        lands in the open table, and the count stays true."""
        telemetry = make_telemetry(capacity=1)
        granted(telemetry, 1, "R1")
        log = granted(telemetry, 1, "R2")
        assert [(s.tid, s.rid) for s in log.open_spans()] == [(1, "R2")]
        assert log.open_count == 1
        assert log.evicted_unfinished == 1
        log = granted(telemetry, 2, "R3")  # the next eviction finds R2
        assert [(s.tid, s.rid) for s in log.open_spans()] == [(2, "R3")]
        assert log.open_count == 1
        assert log.evicted_unfinished == 2
        # The ring (capacity 1 too) keeps the latest flushed span.
        (flushed,) = log.completed_spans()
        assert (flushed.tid, flushed.rid, flushed.unfinished) == (1, "R2", True)

    def test_eviction_is_oldest_first_across_transactions(self):
        telemetry = make_telemetry(capacity=3)
        granted(telemetry, 1, "A")
        granted(telemetry, 2, "B")
        granted(telemetry, 1, "C")
        granted(telemetry, 3, "D")  # evicts T1's first span
        log = granted(telemetry, 4, "E")  # then T2's: older than T1's second
        flushed = [(s.tid, s.rid) for s in log.completed_spans()]
        assert flushed == [(1, "A"), (2, "B")]
        assert all(s.unfinished for s in log.completed_spans())
        assert [(s.tid, s.rid) for s in log.open_spans()] == [
            (1, "C"), (3, "D"), (4, "E"),
        ]


class TestAnnotations:
    def test_record_is_born_finished_and_counted_apart(self):
        telemetry = make_telemetry()
        log = granted(telemetry, 1, "R")
        span_id = int(telemetry.pass_span("deadlock"))
        (span,) = log.completed_spans()
        assert (span.span_id, span.kind) == (span_id, "pass")
        assert span.status == "deadlock"
        assert log.open_spans()[0].span_id != span_id
        assert log.total_started == 1
        assert log.total_recorded == 1

    def test_to_dicts_kinds_filter_hides_annotations(self):
        telemetry = make_telemetry()
        log = granted(telemetry, 1, "R")
        telemetry.pass_span("clear")
        kinds = [r["kind"] for r in log.to_dicts(kinds=LIFECYCLE_KINDS)]
        assert kinds == ["request"]
        assert {r["kind"] for r in log.to_dicts()} == {"request", "pass"}
