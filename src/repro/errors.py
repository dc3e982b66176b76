"""Exception hierarchy for the INSQ reproduction library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class when they want to treat every library failure
uniformly, or catch more specific subclasses when they need to distinguish
configuration mistakes from geometric degeneracies or data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters.

    Examples: a non-positive ``k``, a prefetch ratio below 1, or an index
    page size that is too small to hold a single entry.
    """


class GeometryError(ReproError):
    """Raised when a geometric computation cannot proceed.

    Examples: building a Voronoi diagram from fewer than three points,
    clipping with a degenerate half-plane, or requesting the circumcircle of
    collinear points.  ``delta`` is None, or for an index update refused
    part-way the ``(new_indexes, deleted, changed)`` the index differs by.
    """

    delta = None


class EmptyDatasetError(ReproError):
    """Raised when an operation requires data objects but none were given."""


class RoadNetworkError(ReproError):
    """Raised for malformed road networks.

    Examples: an edge referring to an unknown vertex, a disconnected graph
    passed to an algorithm that requires connectivity, or a network location
    whose offset exceeds the edge length.
    """


class QueryError(ReproError):
    """Raised when a query cannot be answered.

    Examples: asking for more neighbours than there are data objects, or
    updating a processor that has not been initialised with a first location.
    """


class TransportError(ReproError):
    """Raised for wire-level failures of the ``repro.transport`` layer.

    Examples: a frame whose declared length exceeds the codec's limit, an
    unknown frame type, a truncated or over-long frame body, a connection
    that closed mid-frame, or a response received out of protocol order.
    Engine-side failures (a bad ``k``, an unknown query) are *not*
    transport errors — they cross the wire as typed error frames and are
    re-raised client-side as their original exception class.
    """


class ConnectionLost(TransportError):
    """Raised when the peer of a transport connection went away.

    Distinguishes a vanished peer (a clean or mid-frame hangup) from
    protocol-level corruption: callers that can recover a lost peer — a
    retrying client — catch this subclass; everything else still catches
    :class:`TransportError`.
    """


class RequestTimeout(TransportError):
    """Raised when a wire request exceeded its caller-supplied deadline.

    The connection itself is still intact (the response may yet arrive);
    only idempotent requests are safe to retry on the same ordered stream
    — :class:`~repro.transport.client.RemoteService` does exactly that,
    with bounded exponential backoff, and drains the late duplicate
    responses afterwards.
    """


class DurabilityError(ReproError):
    """Base class for failures of the ``repro.durability`` subsystem."""


class SnapshotError(DurabilityError):
    """Raised for unreadable engine snapshots.

    Examples: a bad magic/version header, a payload shorter than its
    declared length, or a checksum mismatch.  Recovery treats a corrupt
    snapshot as absent and falls back to the previous valid one.
    """


class WALCorruptError(DurabilityError):
    """Raised when a write-ahead-log record fails its CRC (or framing).

    A *corrupt* record — intact length framing but mangled content — is
    distinguished from a *torn tail* (the file simply ends mid-record,
    the expected shape after a crash), which readers repair by truncation
    instead of raising.
    """
