#!/usr/bin/env python
"""Validate repro JSON-lines record files: ``repro.bench/1`` metrics
(the ``--metrics-out`` output) and ``repro.incident/1`` deadlock
forensics (the ``serve --incident-log`` output).

Usage::

    PYTHONPATH=src python tools/validate_records.py FILE [FILE...]
    PYTHONPATH=src python tools/validate_records.py --kind incident FILE

With ``--kind auto`` (the default) each file's kind is sniffed from the
``schema`` field of its first record.  Exits non-zero when any file is
unreadable, empty, or contains a record violating its schema — CI runs
this over the smoke benchmark's and incident smoke's artifacts so a
drifting record format fails the build instead of silently producing
unparseable history.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

from repro.obs.bench import validate_file as validate_bench_file  # noqa: E402
from repro.obs.incidents import (  # noqa: E402
    SCHEMA as INCIDENT_SCHEMA,
    validate_incident_file,
)

VALIDATORS = {
    "bench": validate_bench_file,
    "incident": validate_incident_file,
}


def sniff_kind(path: str) -> str:
    """The record kind of a file, from its first record's ``schema``
    (unreadable or unparseable files default to bench — the validator
    then reports the real problem)."""
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    return "bench"
                schema = (
                    record.get("schema", "")
                    if isinstance(record, dict)
                    else ""
                )
                return (
                    "incident" if schema == INCIDENT_SCHEMA else "bench"
                )
    except OSError:
        pass
    return "bench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate repro.bench/1 and repro.incident/1 "
        "JSON-lines record files"
    )
    parser.add_argument(
        "--kind",
        choices=["auto", "bench", "incident"],
        default="auto",
        help="record schema to validate against (auto sniffs per file)",
    )
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)

    failed = False
    for path in args.files:
        kind = args.kind if args.kind != "auto" else sniff_kind(path)
        count, errors = VALIDATORS[kind](path)
        if errors:
            failed = True
            print(
                "{}: INVALID {} file ({} record(s))".format(
                    path, kind, count
                )
            )
            for error in errors:
                print("  " + error)
        else:
            print(
                "{}: OK ({} {} record(s))".format(path, count, kind)
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
