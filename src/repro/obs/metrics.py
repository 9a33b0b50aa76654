"""A dependency-free metrics registry: counters, gauges, histograms.

The design follows the Prometheus data model — named instruments with
string labels, histograms as fixed cumulative buckets — but keeps the
whole implementation in the standard library so the telemetry layer can
be imported anywhere the lock manager is (embedded, server, explorer,
benchmark) without adding a dependency.

* :class:`Counter` — a monotonically growing float (``inc``).
* :class:`Gauge` — a settable value.  Either may instead be backed by a
  zero-argument callback read at snapshot/render time
  (``len(sessions)``-style views and counts their owner keeps as plain
  ints cost nothing between scrapes).
* :class:`Histogram` — fixed upper-bound buckets plus sum/count/min/max;
  :meth:`Histogram.quantile` estimates percentiles from the bucket
  counts (rank-based, clamped to the observed maximum), which is what
  the p50/p95/p99 summaries report.
* :class:`MetricsRegistry` — get-or-create instruments by
  ``(name, labels)`` (:class:`bound` declares one a class feeds often:
  resolved once, then held), a JSON-ready
  :meth:`~MetricsRegistry.snapshot`,
  and Prometheus text exposition via :meth:`~MetricsRegistry.render`
  (parsed back by :func:`parse_exposition` for round-trip tests and the
  ``top`` dashboard).

All mutation is guarded by one registry lock, so threads can share a
registry: the service's writer and a
:class:`~repro.obs.exporter.MetricsExporter` rendering a scrape on its
own thread.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bound",
    "DEFAULT_BUCKETS",
    "DURATION_BUCKETS",
    "COUNT_BUCKETS",
    "bucket_quantile",
    "parse_exposition",
]

#: Default buckets for wait/latency histograms, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for sub-millisecond durations (detector passes).
DURATION_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
    5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Buckets for small cardinalities (graph sizes, cycles, TRRPs).
COUNT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for key, _value in items:
        if not _LABEL_RE.match(key):
            raise ValueError("invalid label name {!r}".format(key))
    return items


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(items: LabelItems, extra: Optional[str] = None) -> str:
    parts = [
        '{}="{}"'.format(key, _escape_label_value(value))
        for key, value in items
    ]
    if extra is not None:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def bucket_quantile(
    bounds: Iterable[float],
    counts: Iterable[float],
    q: float,
    max_observed: Optional[float] = None,
) -> Optional[float]:
    """Rank-based quantile estimate over cumulative-style bucket data.

    ``bounds`` are the finite upper bucket edges, ``counts`` the
    per-bucket (non-cumulative) observation counts with one extra final
    entry for the ``+Inf`` bucket.  The estimate is the upper edge of
    the bucket containing the rank-``ceil(q*n)`` observation, clamped to
    the observed maximum — so it never under-reports and never exceeds
    the largest value seen.
    """
    bounds = list(bounds)
    counts = list(counts)
    total = sum(counts)
    if total <= 0:
        return None
    rank = max(1, math.ceil(q * total))
    cumulative = 0.0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank:
            edge = bounds[index] if index < len(bounds) else math.inf
            if max_observed is not None:
                return min(edge, max_observed)
            return None if edge == math.inf else edge
    return max_observed  # pragma: no cover - defensive


class _Scalar:
    """One number: set by its methods or, with ``fn``, kept by its
    owner and read through that zero-argument callback at
    snapshot/render time."""

    __slots__ = ("name", "labels", "_value", "fn", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        lock,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.fn = fn
        self._lock = lock

    @property
    def value(self) -> float:
        if self.fn is not None:
            try:
                return float(self.fn())
            except Exception:  # a dead callback must not kill a scrape
                return 0.0
        return self._value


class Counter(_Scalar):
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got {})".format(amount))
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down — or a live callback."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max and percentile
    summaries (see module docstring)."""

    kind = "histogram"

    __slots__ = (
        "name", "labels", "buckets", "counts", "sum", "count",
        "min", "max", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # final slot: +Inf
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        # NaN compares false against every edge: it lands in +Inf (-1).
        index = bisect_left(self.buckets, value) if value == value else -1
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from bucket counts (None when
        empty).  The estimate is an upper bound no larger than the
        bucket edge and never exceeds the observed maximum."""
        return bucket_quantile(self.buckets, self.counts, q, self.max)

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Family:
    """All children of one metric name: fixed kind, help and buckets."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name, kind, help_text, buckets) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelItems, object] = {}


class MetricsRegistry:
    """Instrument factory and holder (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # -- instrument factories ---------------------------------------------

    def _family(self, name, kind, help_text, buckets=None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name {!r}".format(name))
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                "metric {!r} already registered as a {}".format(
                    name, family.kind
                )
            )
        if buckets is not None and family.buckets != buckets:
            raise ValueError(
                "histogram {!r} already registered with different "
                "buckets".format(name)
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    def _scalar(self, cls, name, labels, help_text, fn):
        items = _label_items(labels)
        with self._lock:
            family = self._family(name, cls.kind, help_text)
            child = family.children.get(items)
            if child is None:
                child = cls(name, items, self._lock, fn=fn)
                family.children[items] = child
            elif fn is not None:
                child.fn = fn
            return child

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Counter:
        return self._scalar(Counter, name, labels, help, fn)

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._scalar(Gauge, name, labels, help, fn)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        items = _label_items(labels)
        with self._lock:
            family = self._family(name, "histogram", help, buckets)
            child = family.children.get(items)
            if child is None:
                child = Histogram(
                    name, items, self._lock, buckets=family.buckets
                )
                family.children[items] = child
            return child

    # -- reads -------------------------------------------------------------

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def get(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[object]:
        """The existing instrument for ``(name, labels)``, or None."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_items(labels))

    def snapshot(self) -> Dict[str, List[dict]]:
        """A JSON-ready view of every instrument (the ``metrics`` op)."""
        counters: List[dict] = []
        gauges: List[dict] = []
        histograms: List[dict] = []
        for family in self.families():
            for child in list(family.children.values()):
                base = {"name": family.name, "labels": dict(child.labels)}
                if family.kind == "counter":
                    counters.append(dict(base, value=child.value))
                elif family.kind == "gauge":
                    gauges.append(dict(base, value=child.value))
                else:
                    entry = dict(
                        base,
                        buckets=list(child.buckets),
                        counts=list(child.counts),
                    )
                    entry.update(child.summary())
                    histograms.append(entry)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append("# HELP {} {}".format(family.name, family.help))
            lines.append("# TYPE {} {}".format(family.name, family.kind))
            for child in list(family.children.values()):
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        "{}{} {}".format(
                            family.name,
                            _render_labels(child.labels),
                            _format_value(child.value),
                        )
                    )
                    continue
                cumulative = 0
                for bound, count in zip(
                    list(child.buckets) + [math.inf],
                    child.counts,
                ):
                    cumulative += count
                    lines.append(
                        "{}_bucket{} {}".format(
                            family.name,
                            _render_labels(
                                child.labels,
                                'le="{}"'.format(_format_value(bound)),
                            ),
                            _format_value(cumulative),
                        )
                    )
                lines.append(
                    "{}_sum{} {}".format(
                        family.name,
                        _render_labels(child.labels),
                        _format_value(child.sum),
                    )
                )
                lines.append(
                    "{}_count{} {}".format(
                        family.name,
                        _render_labels(child.labels),
                        _format_value(child.count),
                    )
                )
        return "\n".join(lines) + ("\n" if lines else "")


class bound:
    """A registry child resolved on first use, then held.

    Declared on a class whose instances carry a ``registry``: the first
    read creates the series (it appears when first fed, as a by-name
    lookup would have made it) and stores the child in the instance
    dict under the same name — a non-data descriptor, so every later
    read is a plain attribute load.  Keywords are the child's labels."""

    def __init__(self, kind, name, help="", buckets=None, /, **labels) -> None:
        self.kind, self.name = kind, name
        self.kwargs = {"help": help, "labels": labels or None}
        if buckets is not None:
            self.kwargs["buckets"] = buckets

    def __set_name__(self, owner, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        child = getattr(obj.registry, self.kind)(self.name, **self.kwargs)
        obj.__dict__[self.attr] = child
        return child


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> Dict[Tuple[str, LabelItems], float]:
    """Parse Prometheus text exposition back into samples.

    Returns ``{(sample_name, sorted-label-items): value}`` — histogram
    series appear under their ``_bucket``/``_sum``/``_count`` sample
    names exactly as rendered.  Used by the round-trip tests and the
    ``top`` dashboard.
    """
    samples: Dict[Tuple[str, LabelItems], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError("unparseable exposition line {!r}".format(line))
        labels_text = match.group("labels") or ""
        items = tuple(
            sorted(
                (key, _unescape_label_value(value))
                for key, value in _LABEL_PAIR_RE.findall(labels_text)
            )
        )
        samples[(match.group("name"), items)] = _parse_number(
            match.group("value")
        )
    return samples
