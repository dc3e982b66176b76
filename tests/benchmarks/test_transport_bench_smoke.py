"""Tier-1 smoke test for the PR5 transport benchmark.

Same rationale as the other benchmark smoke tests: the benchmark modules
are only collected when invoked explicitly, so this drives the ``--smoke``
tiny-N mode inside the default ``pytest -x -q`` run — a regression on the
transport path (codec sizes, loopback serving)
fails tier-1 immediately instead of waiting for somebody to run the
benchmark by hand.

Timing assertions are deliberately absent: tiny-N wall clocks are noise.
The smoke run asserts structural invariants only (bit-identical answers
and identical message/object counters across transports, exact
measured-vs-predicted byte reconciliation, a real wire bill).
"""

import pathlib
import sys

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.bench_pr5_transport import run_benchmark as transport_benchmark


class TestTransportBenchmarkSmoke:
    def test_pr5_transport_smoke_equivalence_and_byte_reconciliation(self):
        rows, checks = transport_benchmark(smoke=True)
        assert checks["answers_bit_identical"]
        assert checks["message_object_counters_identical"]
        assert checks["tcp_measured_bytes_match_codec_prediction"]
        assert checks["tcp_engine_bytes_match_client_measurement"]
        by_transport = {row["transport"]: row for row in rows}
        assert set(by_transport) == {"in-process", "loopback-tcp"}
        # In-process serving ships messages but no bytes; the wire ships both.
        assert by_transport["in-process"]["wire_bytes"] == 0
        assert by_transport["loopback-tcp"]["wire_bytes"] > 0
        assert (
            by_transport["loopback-tcp"]["messages"]
            == by_transport["in-process"]["messages"]
        )
