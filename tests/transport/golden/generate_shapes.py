"""Regenerate ``shapes.json``: golden frames at the shapes a compiled codec keys on.

The committed output was written by the codec of commit ``cc512e6`` (PR 19,
the field-by-field interpreter) *before* PR 20 compiled the frame table to
one ``struct.Struct`` per shape, and ``test_golden_corpus.py`` holds the
compiled codec to those bytes next to ``frames.json``.  The samples sit
where a per-shape plan could go wrong and ``frames.json`` does not reach:
array lengths 0, 1 and either side of a one-byte count (255 / 256), a guard
set longer than any plan cache would keep (300), both position arms with
and without a query id, a batch mixing both target arms inside one array,
and the two response kinds with their extension fields filled.  Same rules
as ``generate.py``: run it only to *add* samples::

    PYTHONPATH=src python tests/transport/golden/generate_shapes.py
"""

import json
import os

from repro.core.objects import QueryResult, UpdateAction
from repro.geometry.point import Point
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, RegionEvent
from repro.queries.region import RegionResult
from repro.roadnet.location import NetworkLocation
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.transport.codec import decode, encode

HERE = os.path.dirname(os.path.abspath(__file__))


def _result(k, guards, action=UpdateAction.INCREMENTAL):
    return dict(
        timestamp=k + guards,
        knn=tuple(3 * i + 1 for i in range(k)),
        knn_distances=tuple(0.25 + 1.5 * i for i in range(k)),
        guard_objects=frozenset(7 * i + 2 for i in range(guards)),
        action=action,
        was_valid=guards % 2 == 0,
    )


def _envelope(cls, result):
    return cls(query_id=9, result=result, objects_shipped=40, round_trips=1, epoch=12)


def samples():
    """``(name, message)`` pairs, one per shape."""
    for k in (0, 1, 255, 256):
        for guards in (0, 1, 300):
            yield f"knn_response.k{k}.g{guards}", _envelope(
                KNNResponse, QueryResult(**_result(k, guards))
            )
    point, road = Point(-0.5, 2.0**40), NetworkLocation(2**32 - 1, 0.0)
    for arm, position in (("point", point), ("road", road)):
        yield f"position_update.{arm}.id", PositionUpdate(query_id=0, position=position)
        yield f"position_update.{arm}.none", PositionUpdate(query_id=None, position=position)
    yield "update_batch.mixed_arms", UpdateBatch(
        inserts=(5, Point(1.0, 2.0), 6, Point(3.0, 4.0)),
        deletes=(1, 2, 3),
        moves=((7, Point(5.0, 6.0)), (8, 9), (10, Point(7.0, 8.0))),
    )
    yield "influential_response.k8.g20.sites", _envelope(
        InfluentialResponse,
        InfluentialResult(**_result(8, 20), sites=tuple(range(100, 117))),
    )
    for event in ("stay", "enter"):
        yield f"region_event.k8.g20.{event}", _envelope(
            RegionEvent,
            RegionResult(
                **_result(8, 20, UpdateAction.FULL_RECOMPUTE),
                event=event,
                departed=tuple(range(50, 55)),
            ),
        )


if __name__ == "__main__":
    records = []
    for name, message in samples():
        frame = encode(message)
        assert decode(frame) == message, name
        records.append({"name": name, "hex": frame.hex(), "repr": repr(decode(frame))})
    with open(os.path.join(HERE, "shapes.json"), "w") as handle:
        json.dump(records, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"shapes.json: {len(records)} samples")
