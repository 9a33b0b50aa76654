"""The ``repro.bench/1`` record schema: build, append, iterate,
validate — the contract ``tools/validate_records.py`` enforces in
CI over ``--metrics-out`` files."""

from __future__ import annotations

import json

from repro.obs.bench import (
    SCHEMA,
    append_record,
    build_record,
    iter_records,
    validate_file,
    validate_record,
)
from repro.obs.metrics import MetricsRegistry


def registry_snapshot():
    registry = MetricsRegistry()
    registry.counter("repro_lock_requests_total").inc(4)
    registry.histogram("repro_lock_wait_seconds").observe(0.02)
    return registry.snapshot()


class TestBuild:
    def test_build_record_is_valid(self):
        record = build_record(
            "service_closed_loop",
            {"throughput": 812.4, "note": "dropped", "flag": True},
            metrics=registry_snapshot(),
            params={"backend": "remote"},
            timestamp=1754500000.0,
        )
        assert record["schema"] == SCHEMA
        assert validate_record(record) == []
        # Non-numeric summary values (and bools) are filtered, not kept.
        assert record["summary"] == {"throughput": 812.4}
        assert record["params"] == {"backend": "remote"}

    def test_metrics_and_params_optional(self):
        record = build_record("smoke", {"n": 1}, timestamp=0.0)
        assert "metrics" not in record and "params" not in record
        assert validate_record(record) == []


class TestValidateRecord:
    def good(self):
        return build_record(
            "smoke", {"n": 1}, metrics=registry_snapshot(), timestamp=0.0
        )

    def test_rejects_non_object(self):
        assert validate_record([1, 2]) == ["record is not an object"]

    def test_rejects_wrong_schema(self):
        record = self.good()
        record["schema"] = "repro.bench/0"
        assert any("schema" in error for error in validate_record(record))

    def test_rejects_non_numeric_summary(self):
        record = self.good()
        record["summary"]["n"] = "fast"
        assert any("numeric" in error for error in validate_record(record))

    def test_rejects_empty_summary(self):
        record = self.good()
        record["summary"] = {}
        assert any("summary" in error for error in validate_record(record))

    def test_rejects_missing_metrics_section(self):
        record = self.good()
        del record["metrics"]["gauges"]
        errors = validate_record(record)
        assert "metrics.gauges is missing" in errors

    def test_rejects_malformed_histogram_entry(self):
        record = self.good()
        del record["metrics"]["histograms"][0]["counts"]
        errors = validate_record(record)
        assert any("counts" in error for error in errors)

    def test_policy_label_must_be_usable(self):
        record = build_record(
            "policy_sweep", {"n": 1},
            params={"policy": "nowait"}, timestamp=0.0,
        )
        assert validate_record(record) == []
        record["params"]["policy"] = ""
        assert any(
            "params.policy" in error for error in validate_record(record)
        )
        record["params"]["policy"] = 7
        assert any(
            "params.policy" in error for error in validate_record(record)
        )
        # Absent label stays legal: most benches are not policy-split.
        del record["params"]["policy"]
        assert validate_record(record) == []


class TestFiles:
    def test_append_then_iter_and_validate(self, tmp_path):
        path = str(tmp_path / "results" / "metrics.jsonl")
        append_record(path, build_record("a", {"n": 1}, timestamp=0.0))
        append_record(path, build_record("b", {"n": 2}, timestamp=1.0))
        assert [r["bench"] for r in iter_records(path)] == ["a", "b"]
        count, errors = validate_file(path)
        assert (count, errors) == (2, [])

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        count, errors = validate_file(str(path))
        assert count == 0
        assert any("no records" in error for error in errors)

    def test_bad_line_reported_with_line_number(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = json.dumps(build_record("a", {"n": 1}, timestamp=0.0))
        path.write_text(good + "\nnot json\n" + '{"schema": "nope"}\n')
        count, errors = validate_file(str(path))
        assert count == 3
        assert any(error.startswith("line 2: not JSON") for error in errors)
        assert any(error.startswith("line 3:") for error in errors)

    def test_unreadable_file_is_an_error(self, tmp_path):
        count, errors = validate_file(str(tmp_path / "missing.jsonl"))
        assert count == 0
        assert any("cannot read" in error for error in errors)
