"""An in-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer (spans inside the program are a later change).  One
span is ``{name, start, end, parent, trace}``; spans of one transaction
share a ``trace``.  Everything stays in memory until :meth:`write`.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; for the layer replay, where each level
is its own run, it is level k minus level k+1.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns
from typing import List


class SpanRecorder:
    """Append-only span store; ``begin`` returns the id ``end`` takes."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent id or -1, trace]
        self.rows: List[list] = []

    def begin(self, name: str, trace: int, parent: int = -1) -> int:
        self.rows.append([name, perf_counter_ns(), 0, parent, trace])
        return len(self.rows) - 1

    def end(self, span: int) -> int:
        """Close ``span``; returns its duration in nanoseconds."""
        row = self.rows[span]
        row[2] = perf_counter_ns()
        return row[2] - row[1]

    def call(self, name: str, trace: int, parent: int, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` wrapped in one span."""
        span = self.begin(name, trace, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def durations_us(self, name: str) -> List[float]:
        return [
            (row[2] - row[1]) / 1000.0
            for row in self.rows
            if row[0] == name and row[2]
        ]

    def write(self, path: Path) -> int:
        """Write every closed span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for span, (name, start, end, parent, trace) in enumerate(
                self.rows
            ):
                if not end:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "id": span,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                            "trace": trace,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
                count += 1
        return count
