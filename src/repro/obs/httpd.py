"""A stdlib-only Prometheus ``/metrics`` endpoint.

``insq serve --metrics-port PORT`` mounts this next to the serving
system: a :class:`http.server.ThreadingHTTPServer` whose ``/metrics``
handler renders a fresh snapshot from a caller-supplied provider on
every scrape.  The provider runs on the scrape thread, outside every
serving code path — a scrape cannot perturb answers or counters (the
providers the CLI wires up only take snapshot reads).

No third-party dependency: the exposition text comes from
:func:`repro.obs.metrics.render_prometheus` and the HTTP layer is the
standard library's.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.metrics import render_prometheus

__all__ = ["MetricsHTTPServer", "start_metrics_http"]

_STOP_SECONDS = 5.0


class _ScrapeServer(ThreadingHTTPServer):
    """Handler threads stay daemons, so a stalled client cannot keep the
    process alive, and each is kept while it runs, so ``stop`` can wait."""

    handlers: list = []

    def process_request(self, request, address):
        handler = threading.Thread(target=self.process_request_thread, args=(request, address))
        handler.daemon = True
        self.handlers = [thread for thread in self.handlers if thread.is_alive()] + [handler]
        handler.start()


class MetricsHTTPServer:
    """A running ``/metrics`` endpoint (stop with :meth:`stop`)."""

    def __init__(self, provider: Callable[[], object], host: str, port: int):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib naming)
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served here")
                    return
                try:
                    body = render_prometheus(outer._provider()).encode("utf-8")
                except Exception as error:  # surface, don't kill the thread
                    self.send_error(500, f"snapshot failed: {error}")
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass  # scrapes are routine; keep stderr quiet

        self._provider = provider
        self._server = _ScrapeServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="insq-metrics-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.server_address[1]

    def stop(self) -> None:
        """Shut the endpoint down once the scrapes in flight are answered, or
        after ``_STOP_SECONDS`` in all: a stalled client is abandoned."""
        self._server.shutdown()
        self._server.server_close()
        deadline = time.monotonic() + _STOP_SECONDS
        for thread in (self._thread, *self._server.handlers):
            thread.join(max(0.0, deadline - time.monotonic()))


def start_metrics_http(
    provider: Callable[[], object], host: str = "127.0.0.1", port: int = 0
) -> MetricsHTTPServer:
    """Serve ``/metrics`` from ``provider()`` snapshots; returns the server.

    ``provider`` must return a snapshot-shaped object (a
    :class:`~repro.obs.metrics.RegistrySnapshot` or the
    :class:`~repro.transport.codec.MetricsSnapshot` frame); it is called
    once per scrape.  ``port=0`` binds an ephemeral port — read it back
    from :attr:`MetricsHTTPServer.port`.
    """
    return MetricsHTTPServer(provider, host, port)
