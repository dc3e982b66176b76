"""Stopping the ``/metrics`` endpoint lets a scrape in flight finish.

The handler threads are daemons, so a stalled client cannot keep the
process alive; ``stop`` waits for them instead, within a bound.  Each test
blocks the provider mid-scrape on an event: the stop must still be waiting
while the scrape is held, and the whole body must arrive once it is let go.
"""

import threading
import time
import urllib.request

import pytest

import repro.obs.httpd as httpd
from repro.obs.metrics import RegistrySnapshot, render_prometheus

#: Enough series that a body cut off mid-write cannot pass for a whole one.
SNAPSHOT = RegistrySnapshot(
    counters=tuple(("insq_test_total", f"series={i}", i) for i in range(2_000)),
    gauges=(),
    histograms=(),
)


class HeldScrape:
    """A running endpoint whose provider blocks until ``release`` is set,
    and one scrape of it on a thread of its own."""

    def __init__(self):
        self.entered, self.release = threading.Event(), threading.Event()
        self.server = httpd.start_metrics_http(self.provider)
        self.body, self.length = None, None
        self.client = threading.Thread(target=self.scrape)
        self.client.start()
        assert self.entered.wait(10.0)

    def provider(self):
        self.entered.set()
        self.release.wait(10.0)
        return SNAPSHOT

    def scrape(self):
        url = f"http://127.0.0.1:{self.server.port}/metrics"
        with urllib.request.urlopen(url, timeout=30.0) as response:
            self.length = int(response.headers["Content-Length"])
            self.body = response.read()

    def stop_in_background(self):
        stopper = threading.Thread(target=self.server.stop)
        stopper.start()
        # server_close() has run once the listening socket is closed.
        deadline = time.monotonic() + 10.0
        while self.server._server.socket.fileno() != -1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return stopper


def test_stop_waits_for_the_scrape_in_flight():
    held = HeldScrape()
    stopper = held.stop_in_background()
    stopper.join(timeout=0.3)
    assert stopper.is_alive()  # the listener is closed, the scrape is still held
    held.release.set()
    stopper.join(timeout=10.0)
    assert not stopper.is_alive()
    # stop() returned after the handler ended: the body is already written.
    held.client.join(timeout=10.0)
    expected = render_prometheus(SNAPSHOT).encode("utf-8")
    assert held.length == len(expected) and held.body == expected


def test_a_stalled_scrape_cannot_hold_up_the_stop(monkeypatch):
    monkeypatch.setattr(httpd, "_STOP_SECONDS", 0.2)
    held = HeldScrape()
    started = time.monotonic()
    held.stop_in_background().join(timeout=10.0)
    assert time.monotonic() - started < 5.0
    held.release.set()
    held.client.join(timeout=10.0)


@pytest.mark.parametrize("scrapes", [0, 3])
def test_a_stop_with_no_scrape_in_flight_returns_at_once(scrapes):
    server = httpd.start_metrics_http(lambda: SNAPSHOT)
    for _ in range(scrapes):
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=30.0) as response:
            assert response.read() == render_prometheus(SNAPSHOT).encode("utf-8")
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 2.0
