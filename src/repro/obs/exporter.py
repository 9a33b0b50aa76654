"""The ``/metrics`` HTTP scrape point of ``serve --metrics-port``.

:class:`MetricsExporter` serves whatever text its render function
returns over plain stdlib HTTP.  ``serve`` hands it the registry's
:meth:`~repro.obs.metrics.MetricsRegistry.render`, so a scrape reads the
same Prometheus exposition (0.0.4) as the ``metrics`` wire op.  It is
imported only when ``--metrics-port`` is given.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

__all__ = ["MetricsExporter"]


class MetricsExporter:
    """A minimal stdlib HTTP scrape point.

    ``render_fn`` is called per request and must return the exposition
    text; exceptions answer 500 so a failing render never kills the
    endpoint.  ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`)."""

    def __init__(
        self,
        render_fn: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.render_fn = render_fn
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsExporter":
        render_fn = self.render_fn

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib casing
                try:
                    body = render_fn().encode("utf-8")
                except Exception as exc:  # never kill the endpoint
                    message = "scrape failed: {}\n".format(exc)
                    self.send_response(500)
                    self.send_header("Content-Type", "text/plain")
                    self.end_headers()
                    self.wfile.write(message.encode("utf-8"))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-scrape
                pass

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
