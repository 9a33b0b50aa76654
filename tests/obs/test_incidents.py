"""Deadlock incident records: build from a detection result, schema
validation, the bounded on-disk log, and the operator renderings
(report, DOT graph, ``top`` pane)."""

from __future__ import annotations

import json

import pytest

from repro.core.detection import detect_once
from repro.core.notation import load_table
from repro.core.victim import CostTable
from repro.lockmgr.lock_table import LockTable
from repro.obs.incidents import (
    SCHEMA,
    IncidentLog,
    build_incident,
    incident_to_dot,
    load_incidents,
    render_incident,
    validate_incident,
    validate_incident_file,
)
from repro.obs.top import render_incident_pane

CYCLE_TEXT = (
    "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
    "R2(X): Holder((T2, X, NL)) Queue((T1, X))"
)


def resolved_pass():
    """One resolved two-cycle deadlock plus its pre-pass capture."""
    table = load_table(LockTable(), CYCLE_TEXT)
    table_text = str(table)
    blocked_at = {
        tid: table.blocked_at(tid) for tid in table.blocked_tids()
    }
    result = detect_once(table, CostTable())
    assert result.deadlock_found
    return result, table_text, blocked_at


class TestBuild:
    def test_record_carries_the_decision_and_context(self):
        result, table_text, blocked_at = resolved_pass()
        record = build_incident(
            result,
            source="cluster",
            table_text=table_text,
            blocked_at=blocked_at,
            trace="trace-abcd",
            span="coord:pass-abcd",
            epoch=3,
            workers=2,
            timestamp=42.0,
        )
        assert record["schema"] == SCHEMA
        assert record["id"].startswith("inc-")
        assert record["source"] == "cluster"
        assert record["ts"] == 42.0
        assert record["trace"] == "trace-abcd"
        assert record["span"] == "coord:pass-abcd"
        assert record["epoch"] == 3
        assert record["workers"] == 2
        assert record["table"] == table_text
        (cycle,) = record["cycles"]
        assert sorted(cycle["cycle"]) == [1, 2]
        assert cycle["decision"] == "tdr-1"
        assert cycle["chosen"] in cycle["candidates"]
        # The W/H edges come from the pre-pass blocked_at capture.
        assert {
            (edge["tid"], edge["rid"]) for edge in cycle["edges"]
        } == {(1, "R2"), (2, "R1")}
        assert record["aborted"] == [int(t) for t in result.aborted]
        assert validate_incident(record) == []

    def test_record_is_json_ready(self):
        result, table_text, blocked_at = resolved_pass()
        record = build_incident(
            result, source="service", table_text=table_text,
            blocked_at=blocked_at,
        )
        assert validate_incident(json.loads(json.dumps(record))) == []


class TestValidate:
    def test_rejects_wrong_schema_and_missing_cycles(self):
        result, _, _ = resolved_pass()
        record = build_incident(result, source="service")
        record["schema"] = "repro.bench/1"
        record["cycles"] = []
        problems = validate_incident(record)
        assert any("schema" in problem for problem in problems)
        assert any("cycles" in problem for problem in problems)

    def test_rejects_bad_candidate_and_source(self):
        result, _, _ = resolved_pass()
        record = build_incident(result, source="service")
        record["source"] = "nowhere"
        record["cycles"][0]["candidates"][0] = {"kind": "guess"}
        problems = validate_incident(record)
        assert any("source" in problem for problem in problems)
        assert any("kind" in problem for problem in problems)

    def test_non_object_is_one_error(self):
        assert validate_incident(None) == ["record is not an object"]

    def test_a_record_of_another_kind_is_invalid_not_fatal(
        self, tmp_path, capsys
    ):
        """Older logs may hold warning records (no ``cycles``): they
        list as INVALID and still render."""
        from repro.cli import main

        record = {
            "schema": SCHEMA, "kind": "warning", "id": "inc-0ld",
            "ts": 1.0, "source": "service", "policy": "periodic",
            "patterns": [{"path": [3, 1], "rids": ["R2"]}],
        }
        assert "kind must be 'deadlock' (got 'warning')" in (
            validate_incident(record)
        )
        path = tmp_path / "incidents.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["incidents", "list", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("INVALID")
        assert main(["incidents", "show", str(path)]) == 0
        shown = capsys.readouterr()
        assert shown.out.startswith("incident inc-0ld")
        assert "schema problem: kind must be 'deadlock'" in shown.err

    def test_list_refuses_a_negative_limit(self, tmp_path, capsys):
        """``--limit`` is a count: ``-2`` would slice off the two
        oldest records instead of keeping the two newest."""
        from repro.cli import main

        path = tmp_path / "incidents.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit) as raised:
            main(["incidents", "list", str(path), "--limit", "-2"])
        assert raised.value.code == 2
        assert "a limit is a count" in capsys.readouterr().err


class TestLog:
    def test_ring_bounds_memory_and_total_keeps_counting(self):
        result, _, _ = resolved_pass()
        log = IncidentLog(capacity=2)
        for _ in range(5):
            log.append(build_incident(result, source="service"))
        assert len(log) == 2
        assert log.total == 5
        assert len(log.recent(1)) == 1

    def test_disk_file_compacts_back_to_capacity(self, tmp_path):
        result, _, _ = resolved_pass()
        path = str(tmp_path / "incidents.jsonl")
        log = IncidentLog(path=path, capacity=2)
        records = [
            build_incident(result, source="service") for _ in range(5)
        ]
        for record in records:
            log.append(record)
        kept = load_incidents(path)
        # 5 appends against capacity 2: the file was compacted once it
        # doubled, and what remains is a newest-suffix of the stream.
        assert len(kept) <= 4
        assert [r["id"] for r in kept] == [
            r["id"] for r in records[-len(kept):]
        ]
        count, errors = validate_incident_file(path)
        assert errors == []
        assert count == len(kept)

    def test_reopening_a_log_resumes_from_disk(self, tmp_path):
        result, _, _ = resolved_pass()
        path = str(tmp_path / "incidents.jsonl")
        IncidentLog(path=path, capacity=8).append(
            build_incident(result, source="cluster")
        )
        reopened = IncidentLog(path=path, capacity=8)
        assert len(reopened) == 1
        assert reopened.total == 1
        assert reopened.recent()[0]["source"] == "cluster"

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert load_incidents(str(tmp_path / "nope.jsonl")) == []


class TestRendering:
    def test_dot_highlights_the_victim_and_labels_the_edges(self):
        result, table_text, blocked_at = resolved_pass()
        record = build_incident(
            result, source="cluster", blocked_at=blocked_at
        )
        dot = incident_to_dot(record)
        victim = record["aborted"][0]
        assert dot.startswith("digraph incident {")
        assert '"T{}" [style=filled, fillcolor=red'.format(victim) in dot
        assert 'label="R1"' in dot or 'label="R2"' in dot

    def test_report_names_the_cycle_and_decision(self):
        result, table_text, blocked_at = resolved_pass()
        record = build_incident(
            result, source="service", table_text=table_text,
            blocked_at=blocked_at, trace="trace-ff", span="svc:9",
        )
        report = render_incident(record)
        assert record["id"] in report
        assert "trace trace-ff" in report
        assert "tdr-1" in report
        assert "snapshot:" in report

    def test_top_pane_shows_newest_first_and_counts_the_rest(self):
        result, _, _ = resolved_pass()
        records = [
            build_incident(result, source="cluster") for _ in range(5)
        ]
        pane = render_incident_pane(records, limit=2)
        assert records[-1]["id"] in pane
        assert records[-2]["id"] in pane
        assert records[0]["id"] not in pane
        assert "3 older incident(s)" in pane
        assert "none recorded" in render_incident_pane([])


class TestPassCapture:
    """The record's ``table`` is rendered by the pass itself, from the
    waiting structure — idle rows are noise in a deadlock report."""

    def run_deadlock(self, build_service):
        from repro.core.modes import LockMode

        core = build_service()
        session = core.open_session()
        for index in range(40):
            core.lock_step(
                session, 100 + index, "idle{}".format(index),
                LockMode.S, wait=False,
            )
        for tid, rid in ((1, "R1"), (2, "R2"), (1, "R2"), (2, "R1")):
            core.lock_step(session, tid, rid, LockMode.X, wait=False)
        result = core.detect_step()
        assert result.deadlock_found
        return core.incidents.recent()[-1]

    def test_service_record_renders_the_waiting_structure_only(self):
        from repro.service.core import ServiceCore

        for shards in (1, 4):
            record = self.run_deadlock(
                lambda: ServiceCore(shards=shards, policy="periodic")
            )
            assert validate_incident(record) == []
            assert record["table"].splitlines() == [
                "R1(X): Holder((T1, X, NL)) Queue((T2, X))",
                "R2(X): Holder((T2, X, NL)) Queue((T1, X))",
            ]
            assert record["cycles"][0]["edges"] == [
                {"tid": 1, "rid": "R2"}, {"tid": 2, "rid": "R1"},
            ]
            assert record["stats"]["transactions"] == 2

    def test_clean_pass_writes_nothing(self):
        from repro.core.modes import LockMode
        from repro.service.core import ServiceCore

        core = ServiceCore(shards=4, policy="periodic")
        session = core.open_session()
        core.lock_step(session, 1, "R1", LockMode.X, wait=False)
        core.lock_step(session, 2, "R1", LockMode.X, wait=False)
        assert not core.detect_step().deadlock_found
        assert core.incidents.recent() == []
