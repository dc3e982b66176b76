"""Link faults: the client's timeout / retry / duplicate-drain machinery.

A scripted peer answers late, never, or after a dropped send, and the
client must stay honest about what it resent and drained.
"""

import socket
import threading
import time

import pytest

from fault_injection import FaultyStream
from repro.core.stats import CommunicationStats
from repro.errors import RequestTimeout
from repro.geometry.point import Point
from repro.transport import MessageStream, RemoteService
from repro.transport.codec import (
    OpenSession,
    SessionOpened,
    StatsRequest,
    StatsResponse,
)


# ----------------------------------------------------------------------
# Client-side timeout / retry / duplicate-drain machinery
# ----------------------------------------------------------------------
def stub_pair():
    """A RemoteService wired to an in-test scripted peer."""
    ours, theirs = socket.socketpair()
    return MessageStream(theirs), ours


def run_stub(sock, stats_delays):
    """Serve a scripted peer: opens sessions, answers stats with delays."""
    stream = MessageStream(sock)
    delays = list(stats_delays)
    try:
        while True:
            received = stream.receive()
            if received is None:
                return
            message, _ = received
            if isinstance(message, OpenSession):
                stream.send(SessionOpened(query_id=0))
            elif isinstance(message, StatsRequest):
                delay = delays.pop(0) if delays else 0.0
                if delay:
                    time.sleep(delay)
                stream.send(
                    StatsResponse(aggregate=CommunicationStats(), per_session=())
                )
            # PositionUpdate: never answered — the stub plays a hung server.
    except Exception:
        pass


class TestClientRetries:
    def make_remote(self, stats_delays, **kwargs):
        stream, peer_sock = stub_pair()
        thread = threading.Thread(
            target=run_stub, args=(peer_sock, stats_delays), daemon=True
        )
        thread.start()
        kwargs.setdefault("request_timeout", 0.2)
        kwargs.setdefault("retries", 2)
        kwargs.setdefault("backoff", 0.02)
        return RemoteService(stream, endpoint="stub", **kwargs)

    def test_slow_response_is_retried_and_duplicate_drained(self):
        remote = self.make_remote(stats_delays=[0.45])
        stats = remote.communication()  # first answer blows the timeout
        assert isinstance(stats, CommunicationStats)
        assert remote.timeouts >= 1
        assert remote.resends >= 1
        # The resends left duplicate responses in flight; the next request
        # drains them before reading its own answer.
        assert remote.duplicate_frames == 0
        remote.communication()
        assert remote.duplicate_frames == remote.resends
        assert remote.duplicate_bytes > 0
        remote.close()

    def test_unanswered_idempotent_request_times_out_after_retries(self):
        remote = self.make_remote(stats_delays=[3600.0], retries=1)
        with pytest.raises(RequestTimeout):
            remote.communication()
        assert remote.timeouts == 2  # the original and its one retry
        assert remote.resends == 1
        remote.close()

    def test_mutating_requests_are_never_resent(self):
        remote = self.make_remote(stats_delays=[])
        session = remote.open_session(Point(0.0, 0.0), k=2)
        with pytest.raises(RequestTimeout):
            session.update(Point(1.0, 0.0))  # the stub never answers these
        assert remote.timeouts == 1
        assert remote.resends == 0  # replaying a PositionUpdate is unsafe
        remote.close()

    def test_dropped_send_is_retried_then_honestly_desynced(self):
        remote = self.make_remote(stats_delays=[])
        # Losing the request itself (ordinal 0) means the peer only ever
        # saw the resend.  The retry succeeds...
        remote._stream = FaultyStream(remote._stream, drop_sends=(0,))
        stats = remote.communication()
        assert isinstance(stats, CommunicationStats)
        assert remote._stream.dropped == 1
        assert remote.timeouts == 1
        assert remote.resends == 1
        # ...but the client cannot distinguish a lost request from a slow
        # response, so it books one expected duplicate that will never
        # arrive — and honestly times out draining it on the next request
        # instead of fabricating stream synchrony.  (On a real socket a
        # sent frame is never silently lost: either it is delivered or the
        # connection surfaces ConnectionLost, so this stays hypothetical.)
        with pytest.raises(RequestTimeout):
            remote.communication()
        remote.close()

    def test_no_timeout_configured_means_no_retry_machinery(self):
        remote = self.make_remote(stats_delays=[0.3], request_timeout=None)
        stats = remote.communication()  # waits as long as it takes
        assert isinstance(stats, CommunicationStats)
        assert remote.timeouts == 0
        assert remote.resends == 0
        remote.close()
