"""``incidents``: browse a deadlock incident log."""

from __future__ import annotations

import sys

from ..obs.incidents import (
    incident_to_dot,
    load_incidents,
    render_incident,
    validate_incident,
)


def cmd_incidents(args) -> int:
    records = load_incidents(args.file)
    if not records:
        print("no incident records in {}".format(args.file),
              file=sys.stderr)
        return 1

    def pick(records):
        """The addressed record: by id when given, else the newest."""
        if args.id:
            for record in records:
                if record.get("id") == args.id:
                    return record
            print(
                "no incident {!r} in {} ({} records)".format(
                    args.id, args.file, len(records)
                ),
                file=sys.stderr,
            )
            return None
        return records[-1]

    if args.action == "list":
        shown = records[-args.limit:] if args.limit else records
        for record in shown:
            cycles = record.get("cycles") or []
            decisions = ",".join(
                entry.get("decision", "?") for entry in cycles
            )
            problems = validate_incident(record)
            print(
                "{}  ts={:<14.3f} source={:<8} cycles={} [{}] "
                "aborted={} {}".format(
                    record.get("id", "?"),
                    record.get("ts", 0.0),
                    record.get("source", "?"),
                    len(cycles),
                    decisions,
                    record.get("aborted") or "-",
                    "INVALID" if problems else "",
                ).rstrip()
            )
        print(
            "{} of {} record(s) shown from {}".format(
                len(shown), len(records), args.file
            ),
            file=sys.stderr,
        )
        return 0

    record = pick(records)
    if record is None:
        return 1
    if args.action == "show":
        print(render_incident(record))
        for problem in validate_incident(record):
            print("schema problem: " + problem, file=sys.stderr)
        return 0
    # graph
    print(incident_to_dot(record))
    return 0
