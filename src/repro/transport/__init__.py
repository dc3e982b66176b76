"""Serving over the wire: the transport layer of the INSQ system.

PR4 made the client/server protocol explicit — typed messages whose cost
is accounted into :class:`~repro.core.stats.CommunicationStats` — but the
exchanges were method calls.  This package makes them real:

* :mod:`repro.transport.codec` — a compact length-prefixed binary wire
  format for the protocol (struct-packed frames, no pickle on the hot
  path), with :func:`~repro.transport.codec.wire_size` predicting every
  message's encoded size *exactly*, so measured wire bytes reconcile
  against the message-level accounting;
* :mod:`repro.transport.server` — :class:`KNNServer` hosts a
  :class:`~repro.service.service.KNNService` behind a TCP or Unix-domain
  socket, one reader loop per connection, update epochs applied strictly
  between request batches, and measured bytes billed into the same
  engine counters as the messages they carry;
* :mod:`repro.transport.client` — :func:`connect` returns a
  :class:`RemoteService` whose :class:`RemoteSession` is a drop-in
  :class:`~repro.service.session.Session` (the same class, through the
  service seam), so workload drivers run unchanged over the wire.

The invariant the test suite holds: a workload driven over a socket
returns bit-identical answers and identical message/object
communication counters to the in-process service — the transport adds
bytes (now measured), never exchanges.
"""

from repro.errors import ConnectionLost, RequestTimeout, TransportError
from repro.transport.client import (
    RemoteService,
    RemoteSession,
    connect,
    parse_endpoint,
)
from repro.transport.codec import (
    FrameReader,
    InfluentialResponse,
    OpenQuery,
    RegionEvent,
    decode,
    encode,
    wire_size,
)
from repro.transport.server import KNNServer, serve_connection
from repro.transport.stream import MessageStream

__all__ = [
    "ConnectionLost",
    "FrameReader",
    "InfluentialResponse",
    "KNNServer",
    "MessageStream",
    "OpenQuery",
    "RegionEvent",
    "RemoteService",
    "RemoteSession",
    "RequestTimeout",
    "TransportError",
    "connect",
    "decode",
    "encode",
    "parse_endpoint",
    "serve_connection",
    "wire_size",
]
