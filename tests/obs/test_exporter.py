"""``MetricsExporter``: the ``serve --metrics-port`` scrape point serves
its render function's exposition over HTTP, round-tripping through
``parse_exposition`` — the same parser a Prometheus scrape
exercises."""

from __future__ import annotations

import urllib.error
import urllib.request

from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import MetricsRegistry, parse_exposition


class TestExporter:
    def test_http_scrape_serves_the_rendered_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_lock_grants_total").inc(3)
        exporter = MetricsExporter(registry.render, port=0).start()
        try:
            url = "http://127.0.0.1:{}/metrics".format(exporter.port)
            with urllib.request.urlopen(url, timeout=10.0) as response:
                assert response.status == 200
                body = response.read().decode("utf-8")
        finally:
            exporter.close()
        samples = parse_exposition(body)
        assert samples[("repro_lock_grants_total", ())] == 3.0

    def test_render_failure_answers_500_and_endpoint_survives(self):
        state = {"fail": True}

        def render() -> str:
            if state["fail"]:
                raise RuntimeError("boom")
            return "ok_total 1\n"

        exporter = MetricsExporter(render, port=0).start()
        try:
            url = "http://127.0.0.1:{}/metrics".format(exporter.port)
            try:
                urllib.request.urlopen(url, timeout=10.0)
                raise AssertionError("scrape should have answered 500")
            except urllib.error.HTTPError as error:
                assert error.code == 500
            state["fail"] = False
            with urllib.request.urlopen(url, timeout=10.0) as response:
                assert response.status == 200
        finally:
            exporter.close()
