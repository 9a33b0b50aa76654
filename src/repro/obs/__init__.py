"""repro.obs — dependency-free telemetry for the lock stack.

Four layers, importable anywhere the lock manager is:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and fixed-bucket histograms (p50/p95/p99 summaries), Prometheus
  text exposition and a JSON snapshot;
* :mod:`repro.obs.spans` — :class:`Span`/:class:`TraceLog`, one record
  per lock request's lifecycle (``request -> blocked ->
  granted/aborted/timed-out -> released``) with wall- and virtual-clock
  stamps, exportable as JSON-lines;
* :mod:`repro.obs.instrument` — :class:`Telemetry`, the hub that
  subscribes to the lock manager's event stream, the detector and the
  service layer;
* :mod:`repro.obs.top` — the ``python -m repro top`` dashboard and
  ``trace-export``.

The metric catalog and span schema are documented in
``docs/OBSERVABILITY.md``.
"""

from .instrument import Telemetry
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    parse_exposition,
)
from .spans import Span, TERMINAL_STATES, TraceLog

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TERMINAL_STATES",
    "Telemetry",
    "TraceLog",
    "bucket_quantile",
    "parse_exposition",
]
