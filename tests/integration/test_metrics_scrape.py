"""End-to-end scrape drill: boot ``insq serve`` with live endpoints.

A real ``python -m repro.cli serve`` subprocess hosts a loopback-TCP
run with ``--metrics-port`` (Prometheus over HTTP) and ``--stats-port``
(the binary ``insq stats`` listener) mounted, slowed with
``--step-delay`` so the endpoints are observably *live mid-stream*, and
kept up with ``--linger`` so a final scrape sees the completed totals.

The test scrapes continuously while the workload runs, then reconciles
the **last** successful scrape — taken during the linger window, after
the step loop finished — against the communication bill the server
prints on exit.  The two come from the same live counters, so they must
agree to the digit; any drift means the scrape path double-bills or the
snapshot frame drops a field.
"""

import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SERVE_ARGS = [
    "serve",
    "--transport", "tcp",
    "--queries", "3",
    "--n", "120",
    "--k", "3",
    "--steps", "12",
    "--metrics-port", "0",
    "--stats-port", "0",
    "--step-delay", "0.2",
    "--linger", "3.0",
]

METRICS_LINE = re.compile(r"metrics endpoint\s*: (http://[\d.]+:\d+/metrics)")
STATS_LINE = re.compile(r"stats endpoint\s*: ([\d.]+:\d+)")
BILL_LINE = re.compile(r"(uplink|downlink)\s+(messages|objects)\s*: (\d+)")


def _spawn_serve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), os.path.join(REPO_ROOT, "src")])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *SERVE_ARGS],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _drain(stream, lines, endpoints, ready):
    for line in stream:
        lines.append(line)
        match = METRICS_LINE.search(line)
        if match:
            endpoints["metrics"] = match.group(1)
        match = STATS_LINE.search(line)
        if match:
            endpoints["stats"] = match.group(1)
        if "metrics" in endpoints and "stats" in endpoints:
            ready.set()
    ready.set()  # stream closed — unblock the waiter either way


def _scrape(url):
    with urllib.request.urlopen(url, timeout=2.0) as response:
        return response.read().decode("utf-8")


def _gauge(body, name):
    """The unlabelled sample for ``name`` in a Prometheus exposition."""
    match = re.search(rf"^{re.escape(name)} ([0-9.e+-]+)$", body, re.MULTILINE)
    assert match, f"{name} missing from scrape:\n{body[:2000]}"
    return float(match.group(1))


class TestLiveScrape:
    def test_scrape_mid_stream_and_reconcile_with_the_printed_bill(self):
        server = _spawn_serve()
        lines, endpoints, ready = [], {}, threading.Event()
        reader = threading.Thread(
            target=_drain, args=(server.stdout, lines, endpoints, ready), daemon=True
        )
        reader.start()
        stats_result = None
        try:
            assert ready.wait(timeout=60.0), "endpoints never announced:\n" + "".join(lines)
            assert "metrics" in endpoints and "stats" in endpoints, "".join(lines)

            mid_stream_body = None
            last_body = None
            while server.poll() is None:
                try:
                    body = _scrape(endpoints["metrics"])
                except (urllib.error.URLError, OSError):
                    break  # linger expired, endpoint torn down
                last_body = body
                if mid_stream_body is None:
                    mid_stream_body = body
                    # While the workload is still streaming, exercise the
                    # binary protocol the same way `insq stats` does.
                    stats_result = subprocess.run(
                        [sys.executable, "-m", "repro.cli", "stats", endpoints["stats"]],
                        env=dict(
                            os.environ,
                            PYTHONPATH=os.pathsep.join(
                                filter(
                                    None,
                                    [
                                        os.environ.get("PYTHONPATH"),
                                        os.path.join(REPO_ROOT, "src"),
                                    ],
                                )
                            ),
                        ),
                        capture_output=True,
                        text=True,
                        timeout=60.0,
                    )
                time.sleep(0.05)
            assert server.wait(timeout=120.0) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        reader.join(timeout=10.0)
        output = "".join(lines)

        # The HTTP endpoint was live mid-stream and spoke Prometheus.
        assert mid_stream_body is not None, output
        assert "# TYPE insq_comm_uplink_messages gauge" in mid_stream_body
        assert "insq_engine_epoch" in mid_stream_body

        # The binary listener answered `insq stats` mid-stream too.
        assert stats_result is not None and stats_result.returncode == 0, (
            stats_result and stats_result.stdout + stats_result.stderr
        )
        assert "counters" in stats_result.stdout
        assert "insq_engine_epoch" in stats_result.stdout
        assert re.search(r"insq_comm_uplink_messages\{kind=", stats_result.stdout)

        # The last scrape landed in the linger window, after the step
        # loop finished — its gauges are the run's final totals, and the
        # server then printed the very same counters as its bill.
        assert last_body is not None
        bill = {
            f"{direction}_{unit}": int(value)
            for direction, unit, value in BILL_LINE.findall(output)
        }
        assert bill, "communication bill missing from output:\n" + output
        for field in (
            "uplink_messages",
            "uplink_objects",
            "downlink_messages",
            "downlink_objects",
        ):
            assert _gauge(last_body, f"insq_comm_{field}") == bill[field], (
                f"{field}: scrape disagrees with the printed bill\n{output}"
            )
