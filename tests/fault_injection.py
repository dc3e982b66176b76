"""Deterministic fault injection for the transport and durability layers.

Everything here exists to *break* the serving system on purpose, in ways
that are exactly reproducible, so the durability layer's recovery
guarantees are held to the bit-identical oracle of ``tests/durability/``.
Serving uses none of it.  Two fault families, both reproducible from
explicit inputs (no wall clock, no hidden randomness):

* **File damage** — :func:`truncate_file` (a torn write: the file simply
  ends early) and :func:`flip_byte` (bit rot: content changes, length
  doesn't) for attacking WAL and snapshot files at chosen offsets.
* **Link faults** — :class:`FaultyStream` wraps a
  :class:`~repro.transport.stream.MessageStream` and drops or delays
  chosen sends, for driving the client's timeout/retry machinery without
  a real flaky network.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Optional

from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# File damage
# ----------------------------------------------------------------------
def truncate_file(path: str, size: int) -> None:
    """Cut a file to ``size`` bytes — a torn write, at any offset."""
    with open(path, "r+b") as handle:
        handle.truncate(size)


def flip_byte(path: str, offset: int) -> None:
    """Invert one byte in place — bit rot that leaves the length intact."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        if len(original) != 1:
            raise ConfigurationError(
                f"{path}: offset {offset} is past the end of the file"
            )
        handle.seek(offset)
        handle.write(bytes((original[0] ^ 0xFF,)))


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
class FaultyStream:
    """A :class:`~repro.transport.stream.MessageStream` with a bad cable.

    Wraps a real stream and interferes with *sends* only (the receive
    path stays honest, so responses are never silently fabricated):

    * sends whose ordinal is in ``drop_sends`` are swallowed — the bytes
      never leave, simulating a hung peer for exactly one request;
    * sends whose ordinal is in ``delay_sends`` sleep ``delay_seconds``
      first, simulating a stall long enough to trip a request timeout
      while the response still eventually arrives.

    Ordinals count from 0 over this wrapper's lifetime.  Deterministic by
    construction; for randomized campaigns draw the ordinal sets from a
    seeded :class:`random.Random` yourself.
    """

    def __init__(
        self,
        stream,
        drop_sends: Iterable[int] = (),
        delay_sends: Iterable[int] = (),
        delay_seconds: float = 0.2,
    ):
        self._stream = stream
        self._drop_sends = frozenset(drop_sends)
        self._delay_sends = frozenset(delay_sends)
        self._delay_seconds = float(delay_seconds)
        self._send_index = 0
        self.dropped = 0
        self.delayed = 0

    def send(self, message: Any) -> int:
        from repro.transport.codec import wire_size

        ordinal = self._send_index
        self._send_index += 1
        if ordinal in self._delay_sends:
            self.delayed += 1
            time.sleep(self._delay_seconds)
        if ordinal in self._drop_sends:
            self.dropped += 1
            return wire_size(message)
        return self._stream.send(message)

    def receive(self, timeout: Optional[float] = None) -> Any:
        return self._stream.receive(timeout=timeout)

    def close(self) -> None:
        self._stream.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stream, name)
