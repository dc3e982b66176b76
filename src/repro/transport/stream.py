"""A message-framed view over one connected socket.

:class:`MessageStream` is the thin seam between the pure-bytes codec and
the blocking-socket world: it sends whole encoded frames (returning their
measured size so callers can bill bytes) and receives whole decoded
messages through an internal :class:`~repro.transport.codec.FrameReader`
(so partial and concatenated reads are invisible to callers).  Both ends
of a connection speak through it — the TCP/Unix-domain
:class:`~repro.transport.server.KNNServer` and the
:class:`~repro.transport.client.RemoteService` — which is what keeps the
wire protocol byte-identical in both directions.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Deque, Optional, Tuple
from collections import deque

from repro.errors import ConnectionLost, RequestTimeout, TransportError
from repro.transport.codec import FrameReader, encode

__all__ = ["MessageStream"]

#: Socket receive granularity.
_RECV_BYTES = 64 * 1024


class MessageStream:
    """Frame-at-a-time send/receive over a connected socket.

    Receiving is single-consumer (each connection has one reader loop);
    sending is guarded by a lock so frames written from several threads
    cannot interleave bytes.
    """

    def __init__(self, sock: socket.socket):
        self._socket = sock
        self._reader = FrameReader()
        self._inbox: Deque[Tuple[Any, int]] = deque()
        self._send_lock = threading.Lock()
        self._closed = False
        self._timeout = sock.gettimeout()  # what the socket is set to now

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (or the peer hung up mid-frame)."""
        return self._closed

    def send(self, message: Any) -> int:
        """Encode and send one message; returns its wire size in bytes."""
        frame = encode(message)
        with self._send_lock:
            if self._closed:
                raise TransportError("cannot send on a closed stream")
            try:
                self._socket.sendall(frame)
            except OSError as error:
                raise TransportError(f"send failed: {error}")
        return len(frame)

    def receive(self, timeout: Optional[float] = None) -> Optional[Tuple[Any, int]]:
        """Block for the next message; ``(message, wire size)`` or ``None``.

        ``None`` means the peer closed the connection cleanly (at a frame
        boundary).  A connection dropped mid-frame raises
        :class:`~repro.errors.ConnectionLost`.

        Args:
            timeout: maximum seconds to wait for the next message;
                ``None`` blocks forever.  On expiry raises
                :class:`~repro.errors.RequestTimeout` with the connection
                (and any partially-read frame) intact — the message may
                still arrive on a later receive.  The socket keeps the
                value until a receive asks for another one (a request /
                response client asks for the same one every time), so it
                also bounds the sends in between.
        """
        while not self._inbox:
            try:
                if timeout != self._timeout:
                    self._socket.settimeout(timeout)
                    self._timeout = timeout
                chunk = self._socket.recv(_RECV_BYTES)
            except socket.timeout:
                # Must precede OSError (socket.timeout subclasses it):
                # an expired deadline is not a hangup.
                raise RequestTimeout(
                    f"no message within {timeout:.3f}s"
                )
            except OSError:
                # A socket closed locally (shutdown) reads as EOF, not as
                # an error: the owner decided to stop this connection.
                chunk = b""
            if not chunk:
                if self._reader.pending_bytes:
                    raise ConnectionLost("connection closed mid-frame")
                return None
            self._inbox.extend(self._reader.feed(chunk))
        return self._inbox.popleft()

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()
