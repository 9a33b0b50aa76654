"""Span lifecycles: request -> blocked -> granted/aborted/timed-out ->
released, dual clocks, the bounded completed ring and JSON-lines export."""

from __future__ import annotations

import json

from repro.obs.spans import LIFECYCLE_KINDS, TERMINAL_STATES, TraceLog


def make_log(**kwargs) -> TraceLog:
    ticks = {"now": 0.0}

    def clock() -> float:
        ticks["now"] += 1.0
        return ticks["now"]

    return TraceLog(clock=clock, **kwargs)


class TestLifecycle:
    def test_immediate_grant_then_release(self):
        log = make_log()
        log.begin(1, "R", "X")
        log.granted(1, "R", "X", immediate=True)
        closed = log.finished(1)
        assert [span.status for span in closed] == ["released"]
        span = closed[0]
        assert span.terminal
        assert [event["phase"] for event in span.events] == [
            "request", "granted-immediate", "released",
        ]
        # Both clocks stamped on every event, virtual strictly advancing.
        virtuals = [event["virtual"] for event in span.events]
        assert virtuals == sorted(virtuals)
        assert all("wall" in event for event in span.events)
        assert not log.open_spans()

    def test_blocked_then_granted_then_released(self):
        log = make_log()
        log.begin(2, "R", "S")
        log.blocked(2, "R", "S", conversion=False)
        assert log.open_spans()[0].kind == "queue"
        log.granted(2, "R", "S", immediate=False)
        assert log.open_spans()[0].status == "granted"  # live, not terminal
        closed = log.finished(2)
        assert closed[0].status == "released"

    def test_blocked_conversion_kind(self):
        log = make_log()
        log.begin(3, "R", "SIX")
        span = log.blocked(3, "R", "SIX", conversion=True)
        assert span.kind == "conversion"

    def test_abort_closes_every_open_span(self):
        log = make_log()
        log.begin(4, "R1", "X")
        log.granted(4, "R1", "X", immediate=True)
        log.begin(4, "R2", "X")
        log.blocked(4, "R2", "X", conversion=False)
        closed = log.aborted(4)
        assert {span.status for span in closed} == {"aborted"}
        assert not log.open_spans()

    def test_finish_aborting_closes_granted_as_aborted(self):
        log = make_log()
        log.begin(5, "R", "X")
        log.granted(5, "R", "X", immediate=True)
        closed = log.finished(5, aborted=True)
        assert closed[0].status == "aborted"


class TestTimeoutResume:
    def test_timeout_closes_span_resume_opens_new_one(self):
        log = make_log()
        log.begin(6, "R", "X")
        log.blocked(6, "R", "X", conversion=False)
        timed_out = log.timed_out(6)
        assert timed_out.status == "timed-out"
        assert not log.open_spans()
        # Client retries: a fresh span of kind "resume", born blocked.
        resumed = log.resumed(6, "R", "X")
        assert resumed.kind == "resume"
        assert resumed.status == "blocked"
        assert resumed.span_id != timed_out.span_id
        log.granted(6, "R", "X", immediate=False)
        closed = log.finished(6)
        assert closed[0].status == "released"
        statuses = {s.span_id: s.status for s in log.completed_spans()}
        assert set(statuses.values()) <= TERMINAL_STATES

    def test_grant_after_timeout_opens_resume_span(self):
        # The sweep grants a request whose span a timeout already closed.
        log = make_log()
        log.begin(7, "R", "X")
        log.blocked(7, "R", "X", conversion=False)
        log.timed_out(7)
        span = log.granted(7, "R", "X", immediate=False)
        assert span.kind == "resume"
        assert span.status == "granted"

    def test_resume_duplicate_stamps_open_span(self):
        log = make_log()
        log.begin(8, "R", "X")
        log.blocked(8, "R", "X", conversion=False)
        span = log.resumed(8, "R", "X")
        assert span is log.open_spans()[0]
        assert span.events[-1]["phase"] == "resume"
        assert log.total_started == 1


class TestLogSurface:
    def test_capacity_bounds_completed_ring(self):
        log = make_log(capacity=3)
        for tid in range(1, 6):
            log.begin(tid, "R{}".format(tid), "X")
            log.granted(tid, "R{}".format(tid), "X", immediate=True)
            log.finished(tid)
        assert log.total_started == 5
        completed = log.completed_spans()
        assert len(completed) == 3
        assert [span.tid for span in completed] == [3, 4, 5]

    def test_export_jsonl_round_trips(self):
        log = make_log()
        log.begin(1, "R", "X")
        log.granted(1, "R", "X", immediate=True)
        log.begin(2, "R", "S")
        log.blocked(2, "R", "S", conversion=False)
        lines = log.export_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["tid"] for record in records] == [1, 2]
        assert records[1]["status"] == "blocked"
        assert {"span", "tid", "rid", "mode", "kind", "status", "events"} \
            <= set(records[0])

    def test_to_dicts_limit_keeps_most_recent(self):
        log = make_log()
        for tid in (1, 2, 3):
            log.begin(tid, "R", "X")
            log.granted(tid, "R", "X", immediate=True)
            log.finished(tid)
        recent = log.to_dicts(limit=2)
        assert [record["tid"] for record in recent] == [2, 3]


class TestEviction:
    def test_capacity_flushes_oldest_open_span_as_unfinished(self):
        log = make_log(capacity=2)
        log.begin(1, "R1", "X")
        log.begin(2, "R2", "X")
        # The third in-flight span pushes the oldest out of the open
        # table — flushed into the ring, never silently dropped.
        log.begin(3, "R3", "X")
        assert log.evicted_unfinished == 1
        assert [span.tid for span in log.open_spans()] == [2, 3]
        (flushed,) = log.completed_spans()
        assert flushed.tid == 1
        assert flushed.unfinished
        assert flushed.events[-1]["phase"] == "evicted"
        # Not a terminal state: the request was still in flight.
        assert not flushed.terminal

    def test_evicted_span_is_exported_with_the_marker(self):
        log = make_log(capacity=1)
        log.begin(1, "R1", "X")
        log.begin(2, "R2", "X")
        records = [
            json.loads(line) for line in log.export_jsonl().splitlines()
        ]
        flushed = [r for r in records if r.get("unfinished")]
        assert [record["tid"] for record in flushed] == [1]
        # Live spans carry no marker at all.
        assert "unfinished" not in records[-1]

    def test_eviction_forgets_the_open_index_entry(self):
        log = make_log(capacity=1)
        log.begin(1, "R1", "X")
        log.begin(2, "R2", "X")
        # T1's span is gone from the open table: a later grant for the
        # same (tid, rid) starts a fresh resume span instead of
        # resurrecting the flushed one.
        span = log.granted(1, "R1", "X", immediate=False)
        assert span.kind == "resume"
        assert not span.unfinished
        assert log.evicted_unfinished == 2  # T2's was flushed in turn


    def test_eviction_does_not_scan_the_open_table(self, monkeypatch):
        """At capacity every new span evicts one.  Finding the oldest
        must not look at every open span: count the reads of
        ``span_id`` (what a scan for the minimum compares) while 1000
        spans start against a full table of 64."""
        from repro.obs import spans

        reads = []

        class CountedSpan(spans.Span):
            __slots__ = ("_id",)

            @property
            def span_id(self):
                reads.append(1)
                return self._id

            @span_id.setter
            def span_id(self, value):
                self._id = value

        monkeypatch.setattr(spans, "Span", CountedSpan)
        log = make_log(capacity=64)
        for tid in range(64):
            log.begin(tid, "R", "X")
        del reads[:]
        for tid in range(64, 1064):
            log.begin(tid, "R", "X")
        assert log.evicted_unfinished == 1000
        assert len(reads) <= 2 * 1000  # a scan reads 64 per start
        # Oldest first, none dropped: the ring's tail is the last 64
        # evicted, in the order they were started.
        evicted = [span.tid for span in log.completed_spans()]
        assert evicted == list(range(1000 - 64, 1000))
        assert [span.tid for span in log.open_spans()] == list(
            range(1000, 1064)
        )

    def test_eviction_is_oldest_first_across_transactions(self):
        log = make_log(capacity=3)
        log.begin(1, "A", "X")
        log.begin(2, "B", "X")
        log.begin(1, "C", "X")
        log.begin(3, "D", "X")  # evicts T1's first span
        log.begin(4, "E", "X")  # then T2's: older than T1's second
        flushed = [(s.tid, s.rid) for s in log.completed_spans()]
        assert flushed == [(1, "A"), (2, "B")]
        assert all(s.unfinished for s in log.completed_spans())
        assert [(s.tid, s.rid) for s in log.open_spans()] == [
            (1, "C"), (3, "D"), (4, "E"),
        ]


class TestAnnotations:
    def test_record_is_born_finished_and_counted_apart(self):
        log = make_log()
        log.begin(1, "R", "X")
        span = log.record(0, "", "", "pass", "deadlock")
        assert span.status == "deadlock"
        assert not log.open_spans()[0] is span
        assert log.total_started == 1
        assert log.total_recorded == 1
        assert span in log.completed_spans()

    def test_to_dicts_kinds_filter_hides_annotations(self):
        log = make_log()
        log.begin(1, "R", "X")
        log.record(0, "", "", "pass", "clear")
        kinds = [r["kind"] for r in log.to_dicts(kinds=LIFECYCLE_KINDS)]
        assert kinds == ["request"]
        assert {r["kind"] for r in log.to_dicts()} == {"request", "pass"}
