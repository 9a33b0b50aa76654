"""The metrics registry: instruments, quantiles, exposition round-trip.

The histogram percentile property test checks the bucket estimator
against the sorted-list oracle: the estimate must never under-report
the true quantile and never exceed the upper edge of the bucket the
true quantile falls in (clamped to the observed maximum) — the exact
guarantee ``docs/OBSERVABILITY.md`` documents.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    parse_exposition,
)


class TestInstruments:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_get_or_create_by_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"mode": "S"})
        b = registry.counter("c_total", labels={"mode": "S"})
        c = registry.counter("c_total", labels={"mode": "X"})
        assert a is b
        assert a is not c

    def test_gauge_callback_reads_live_and_survives_errors(self):
        registry = MetricsRegistry()
        box = {"value": 2.0}
        gauge = registry.gauge("g", fn=lambda: box["value"])
        assert gauge.value == 2.0
        box["value"] = 7.0
        assert gauge.value == 7.0
        registry.gauge("dead", fn=lambda: 1 / 0)
        assert registry.get("dead").value == 0.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_name", labels={"bad-label": "v"})

    def test_histogram_counts_and_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1]
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(6.05)
        assert summary["min"] == 0.05
        assert summary["max"] == 5.0

    @pytest.mark.parametrize(
        "buckets", [DEFAULT_BUCKETS, DURATION_BUCKETS, COUNT_BUCKETS]
    )
    def test_histogram_bucket_matches_the_linear_search(self, buckets):
        def linear(value):
            """The bucket a scan of the edges picks: the first edge the
            value does not exceed, else the +Inf slot."""
            for index, edge in enumerate(buckets):
                if value <= edge:
                    return index
            return len(buckets)

        values = [-math.inf, -1.0, -1e-12, math.inf, math.nan]
        for edge in buckets:
            values += [
                edge, math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf), edge - 1e-9, edge + 1e-9,
                -edge,
            ]
        for value in values:
            hist = MetricsRegistry().histogram("h", buckets=buckets)
            hist.observe(value)
            expected = [0] * (len(buckets) + 1)
            expected[linear(value)] = 1
            assert hist.counts == expected, value

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"mode": "S"}).inc()
        registry.gauge("g").set(3)
        registry.histogram("h", buckets=COUNT_BUCKETS).observe(2)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must survive the wire
        assert {"counters", "gauges", "histograms"} == set(snapshot)
        assert snapshot["counters"][0]["labels"] == {"mode": "S"}


class TestQuantileProperty:
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0,
                max_value=20.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=200,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    def test_estimate_vs_sorted_list_oracle(self, values, q):
        hist = Histogram("h", (), __import__("threading").Lock(),
                         buckets=DEFAULT_BUCKETS)
        for value in values:
            hist.observe(value)
        estimate = hist.quantile(q)
        assert estimate is not None

        # The sorted-list oracle: the rank-ceil(q*n) order statistic.
        ordered = sorted(values)
        rank = max(1, math.ceil(q * len(ordered)))
        true_quantile = ordered[rank - 1]

        # Never under-reports...
        assert estimate >= true_quantile - 1e-12
        # ...and never exceeds the containing bucket's upper edge,
        # clamped to the observed maximum.
        edge = next(
            (b for b in DEFAULT_BUCKETS if true_quantile <= b), math.inf
        )
        assert estimate <= min(edge, max(ordered)) + 1e-12

    def test_empty_histogram_has_no_quantile(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").quantile(0.5) is None

    def test_bucket_quantile_overflow_clamps_to_max(self):
        # Every observation beyond the last finite bucket: the +Inf
        # edge must clamp to the observed maximum, not report infinity.
        assert bucket_quantile((1.0,), (0, 3), 0.99, 42.0) == 42.0


class TestExposition:
    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter(
            "repro_lock_grants_total", labels={"path": "immediate"},
            help="grants",
        ).inc(5)
        registry.gauge("repro_sessions_open").set(2)
        hist = registry.histogram(
            "repro_lock_wait_seconds",
            labels={"mode": "X", "kind": "queue"},
            buckets=(0.1, 1.0),
        )
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_render_format(self):
        text = self.build().render()
        assert "# TYPE repro_lock_grants_total counter" in text
        assert 'repro_lock_grants_total{path="immediate"} 5' in text
        assert "# TYPE repro_lock_wait_seconds histogram" in text
        # Cumulative buckets, the ``le`` label appended last, +Inf last.
        assert (
            'repro_lock_wait_seconds_bucket{kind="queue",mode="X",'
            'le="0.1"} 1' in text
        )
        assert (
            'repro_lock_wait_seconds_bucket{kind="queue",mode="X",'
            'le="+Inf"} 2' in text
        )
        assert 'repro_lock_wait_seconds_count{kind="queue",mode="X"} 2' in text

    def test_parse_round_trip(self):
        registry = self.build()
        samples = parse_exposition(registry.render())
        assert samples[
            ("repro_lock_grants_total", (("path", "immediate"),))
        ] == 5
        assert samples[("repro_sessions_open", ())] == 2
        key = (
            "repro_lock_wait_seconds_bucket",
            (("kind", "queue"), ("le", "+Inf"), ("mode", "X")),
        )
        assert samples[key] == 2

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'he said "hi"\\\n'
        registry.counter("c_total", labels={"rid": tricky}).inc()
        samples = parse_exposition(registry.render())
        assert samples[("c_total", (("rid", tricky),))] == 1
