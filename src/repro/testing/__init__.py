"""Test instrumentation: deterministic fault injection for the transport.

Everything here exists to *break* the serving system on purpose, in ways
that are exactly reproducible from a seed — so the durability layer's
recovery guarantees can be held to the bit-identical oracle of
``tests/durability/`` instead of being demonstrated anecdotally.

See :mod:`repro.testing.faults`.
"""

from repro.testing.faults import (
    FaultyStream,
    flip_byte,
    truncate_file,
)

__all__ = [
    "FaultyStream",
    "flip_byte",
    "truncate_file",
]
