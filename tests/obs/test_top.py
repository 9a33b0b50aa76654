"""The operator dashboard renderer, driven with canned poll samples.

``render_dashboard`` is a pure function of (sample, previous), so these
tests hand-build ``Sample`` payloads in the exact shape the ``metrics``
wire command returns (``MetricsRegistry.snapshot()``) and assert on the
rendered text — no server, no sockets.
"""

from __future__ import annotations

from repro.obs.top import Sample, render_dashboard


def counters(*entries):
    return [
        {"name": name, "labels": labels, "value": value}
        for name, labels, value in entries
    ]


def make_sample(when, *, counter_entries=(), gauges=(), histograms=(),
                stats=None, blocked=()):
    return Sample(
        when,
        {
            "counters": counters(*counter_entries),
            "gauges": [
                {"name": name, "labels": {}, "value": value}
                for name, value in gauges
            ],
            "histograms": list(histograms),
        },
        stats or {},
        {"blocked": list(blocked)},
    )


def wait_histogram(labels, counts, total, acc, max_observed):
    return {
        "name": "repro_lock_wait_seconds",
        "labels": labels,
        "buckets": [0.01, 0.1, 1.0],
        "counts": counts,
        "count": total,
        "sum": acc,
        "min": 0.001,
        "max": max_observed,
        "p50": None,
        "p95": None,
        "p99": None,
    }


class TestSampleReaders:
    def test_counter_total_sums_label_children(self):
        sample = make_sample(0.0, counter_entries=(
            ("repro_lock_grants_total", {"path": "immediate"}, 5.0),
            ("repro_lock_grants_total", {"path": "waited"}, 2.0),
            ("repro_lock_blocks_total", {"kind": "queue"}, 9.0),
        ))
        assert sample.counter_total("repro_lock_grants_total") == 7.0
        assert sample.counter_total("missing") == 0.0

    def test_histogram_summary_merges_children(self):
        sample = make_sample(0.0, histograms=[
            wait_histogram({"mode": "S", "kind": "queue"},
                           [2, 1, 0, 0], 3, 0.05, 0.05),
            wait_histogram({"mode": "X", "kind": "queue"},
                           [0, 0, 3, 0], 3, 1.2, 0.9),
        ])
        merged = sample.histogram_summary("repro_lock_wait_seconds")
        assert merged["count"] == 6
        assert merged["sum"] == 1.25
        assert merged["max"] == 0.9
        # p50 falls in the second bucket (rank 3 of 6), p99 in the third,
        # clamped to the observed max.
        assert merged["p50"] == 0.1
        assert merged["p99"] == 0.9
        assert sample.histogram_summary("absent") is None

    def test_hottest_resources_orders_by_heat_then_name(self):
        sample = make_sample(0.0, counter_entries=(
            ("repro_resource_blocks_total", {"rid": "R2"}, 4.0),
            ("repro_resource_blocks_total", {"rid": "R1"}, 5.0),
            ("repro_resource_blocks_total", {"rid": "R3"}, 4.0),
        ))
        assert sample.hottest_resources() == [
            ("R1", 5.0), ("R2", 4.0), ("R3", 4.0),
        ]


class TestRenderDashboard:
    def busy_sample(self, when=10.0, requests=100.0):
        return make_sample(
            when,
            counter_entries=(
                ("repro_lock_requests_total", {}, requests),
                ("repro_lock_grants_total", {"path": "immediate"}, 80.0),
                ("repro_lock_blocks_total", {"kind": "queue"}, 20.0),
                ("repro_resource_blocks_total", {"rid": "R1"}, 15.0),
                ("repro_resource_blocks_total", {"rid": "R2"}, 5.0),
                ("repro_service_detector_passes_total", {}, 4.0),
                ("repro_detector_deadlock_passes_total", {}, 2.0),
                ("repro_service_abort_free_resolutions_total", {}, 1.0),
                ("repro_detector_tdr1_total", {}, 1.0),
                ("repro_detector_tdr2_total", {}, 3.0),
            ),
            gauges=(
                ("repro_detector_last_pass_seconds", 0.002),
                ("repro_detector_last_graph_transactions", 9.0),
                ("repro_detector_last_cycles", 2.0),
                ("repro_detector_last_run", 123.0),
            ),
            histograms=[
                wait_histogram({"mode": "S", "kind": "queue"},
                               [1, 2, 1, 0], 4, 0.3, 0.4),
            ],
            stats={"sessions": 3, "transactions": 9, "resources": 2,
                   "parked_waiters": 4, "grants": 80, "blocks": 20,
                   "wait_timeouts": 1, "commits": 30, "aborts": 2},
            blocked=(5, 7),
        )

    def test_rates_derive_from_two_samples(self):
        previous = self.busy_sample(when=10.0, requests=100.0)
        current = self.busy_sample(when=12.0, requests=150.0)
        text = render_dashboard(current, previous)
        assert "requests/s     25.0" in text

    def test_rates_zero_without_previous_sample(self):
        text = render_dashboard(self.busy_sample())
        assert "requests/s      0.0" in text

    def test_sections_present(self):
        text = render_dashboard(self.busy_sample())
        assert "sessions 3" in text
        assert "blocked txns: T5 T7" in text
        assert "lock waits: 4 observed" in text
        assert "hottest resources: R1 (15)  R2 (5)" in text
        assert "detector: 4 passes  2 with deadlock" in text
        assert "abort-free ratio 50%" in text
        assert "TDR-1 1  TDR-2 3" in text
        assert "last pass: 2.0ms  over 9 txns  2 cycle(s)" in text

    def test_detector_line_reads_the_service_counters(self):
        # Only what a live registry holds: the ServiceStats families
        # plus the detector's own deadlock/TDR counters.
        sample = make_sample(0.0, counter_entries=(
            ("repro_service_detector_passes_total", {}, 6.0),
            ("repro_service_certain_passes_total", {}, 2.0),
            ("repro_service_abort_free_resolutions_total", {}, 1.0),
            ("repro_detector_deadlock_passes_total", {}, 4.0),
            ("repro_detector_tdr1_total", {}, 3.0),
            ("repro_detector_tdr2_total", {}, 1.0),
        ))
        text = render_dashboard(sample)
        assert (
            "detector: 6 passes  4 with deadlock  abort-free ratio 25%  "
            "TDR-1 3  TDR-2 1  certain 2"
        ) in text

    def test_empty_server_renders_placeholders(self):
        text = render_dashboard(make_sample(0.0))
        assert "lock waits: none observed yet" in text
        assert "blocked txns: none" in text
        assert "abort-free ratio -" in text
        assert "last pass: never" in text
