"""Structured benchmark records: the ``--metrics-out`` JSON-lines path.

Every benchmark (and ``python -m repro simulate --metrics-out``) can
append one record per run to a JSON-lines file under
``benchmarks/results/``, so the performance trajectory accumulates
across PRs instead of living only in human-readable tables.

Record schema (``repro.bench/1``)::

    {"schema":    "repro.bench/1",
     "bench":     "service_closed_loop",          # experiment name
     "timestamp": 1754500000.0,                   # unix seconds
     "params":    {"backend": "remote", ...},     # optional, JSON scalars
     "summary":   {"throughput": 812.4, ...},     # numeric results
     "metrics":   {"counters": [...],             # optional: a
                   "gauges": [...],               # MetricsRegistry
                   "histograms": [...]}}          # snapshot()

``tools/validate_records.py`` checks emitted files against this
schema in CI; :func:`validate_record` is the single source of truth it
calls.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SCHEMA",
    "build_record",
    "append_record",
    "iter_records",
    "validate_record",
    "validate_file",
]

SCHEMA = "repro.bench/1"

_NUMBER = (int, float)


def build_record(
    bench: str,
    summary: Dict[str, float],
    metrics: Optional[Dict[str, Any]] = None,
    params: Optional[Dict[str, Any]] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """One schema-conforming record (validated before it is returned)."""
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "bench": str(bench),
        "timestamp": time.time() if timestamp is None else float(timestamp),
        "summary": {
            key: value
            for key, value in summary.items()
            if isinstance(value, _NUMBER) and not isinstance(value, bool)
        },
    }
    if params:
        record["params"] = dict(params)
    if metrics is not None:
        record["metrics"] = metrics
    errors = validate_record(record)
    if errors:  # pragma: no cover - build_record keeps itself honest
        raise ValueError("invalid bench record: " + "; ".join(errors))
    return record


def append_record(path: str, record: Dict[str, Any]) -> None:
    """Append one record to a JSON-lines file, creating directories as
    needed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def iter_records(path: str) -> Iterator[Dict[str, Any]]:
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def validate_record(record: Any) -> List[str]:
    """Schema violations of one record (empty list when valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("schema") != SCHEMA:
        errors.append(
            "schema must be {!r} (got {!r})".format(
                SCHEMA, record.get("schema")
            )
        )
    if not isinstance(record.get("bench"), str) or not record.get("bench"):
        errors.append("bench must be a non-empty string")
    if not isinstance(record.get("timestamp"), _NUMBER):
        errors.append("timestamp must be a number")
    summary = record.get("summary")
    if not isinstance(summary, dict) or not summary:
        errors.append("summary must be a non-empty object")
    else:
        for key, value in summary.items():
            if not isinstance(value, _NUMBER) or isinstance(value, bool):
                errors.append(
                    "summary[{!r}] must be numeric (got {!r})".format(
                        key, value
                    )
                )
    if "params" in record and not isinstance(record["params"], dict):
        errors.append("params must be an object")
    elif isinstance(record.get("params"), dict):
        # Policy-labeled benches (the policy sweep, the serve lanes)
        # stamp the detection policy on the record; when present it must
        # be a usable label, not a placeholder.
        policy = record["params"].get("policy")
        if policy is not None and (
            not isinstance(policy, str) or not policy
        ):
            errors.append(
                "params.policy must be a non-empty string (got {!r})".format(
                    policy
                )
            )
    if "metrics" in record:
        errors.extend(_validate_metrics(record["metrics"]))
    return errors


def _validate_metrics(metrics: Any) -> List[str]:
    errors: List[str] = []
    if not isinstance(metrics, dict):
        return ["metrics must be an object"]
    for section in ("counters", "gauges", "histograms"):
        entries = metrics.get(section)
        if entries is None:
            errors.append("metrics.{} is missing".format(section))
            continue
        if not isinstance(entries, list):
            errors.append("metrics.{} must be a list".format(section))
            continue
        for index, entry in enumerate(entries):
            where = "metrics.{}[{}]".format(section, index)
            if not isinstance(entry, dict):
                errors.append(where + " must be an object")
                continue
            if not isinstance(entry.get("name"), str):
                errors.append(where + ".name must be a string")
            if not isinstance(entry.get("labels", {}), dict):
                errors.append(where + ".labels must be an object")
            if section == "histograms":
                for field in ("buckets", "counts"):
                    if not isinstance(entry.get(field), list):
                        errors.append(
                            "{}.{} must be a list".format(where, field)
                        )
                if not isinstance(entry.get("count"), _NUMBER):
                    errors.append(where + ".count must be numeric")
            elif not isinstance(entry.get("value"), _NUMBER):
                errors.append(where + ".value must be numeric")
    return errors


def validate_file(path: str) -> Tuple[int, List[str]]:
    """Validate a JSON-lines file; returns ``(record_count, errors)``."""
    errors: List[str] = []
    count = 0
    try:
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                count += 1
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    errors.append(
                        "line {}: not JSON ({})".format(line_number, exc)
                    )
                    continue
                errors.extend(
                    "line {}: {}".format(line_number, problem)
                    for problem in validate_record(record)
                )
    except OSError as exc:
        return 0, ["cannot read {}: {}".format(path, exc)]
    if count == 0:
        errors.append("{}: no records found".format(path))
    return count, errors
