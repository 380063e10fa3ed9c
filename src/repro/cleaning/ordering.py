"""Ordering repair (paper Sec. IV.B).

Route points may arrive at the server out of order because of latency
variation, so point-id order and timestamp order can disagree.  The paper
resolves the conflict geometrically: sort the points both ways, compute
the trip distance under each ordering, and judge the shorter one to be
right ("the one with the smaller length is judged as the right
sequence").  All corresponding properties are then re-aligned to the
chosen sequence so both id and timestamp increase monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.traces.arrays import TraceArrays
from repro.traces.model import RoutePoint, Trip


@dataclass(frozen=True)
class OrderingReport:
    """What the ordering repair decided for one trip."""

    trip_id: int
    distance_by_id_m: float
    distance_by_time_m: float
    chosen: str                      # "point_id" or "time_s"
    was_consistent: bool             # True when both orderings agreed

    @property
    def saved_m(self) -> float:
        """Distance removed by choosing the better ordering."""
        return abs(self.distance_by_id_m - self.distance_by_time_m)


def repair_ordering(trip: Trip) -> tuple[Trip, OrderingReport]:
    """Repair a trip's point ordering; returns (repaired trip, report).

    Ties (equal distances, including already-consistent trips) keep the
    id ordering.  After the choice, ids and timestamps are re-assigned from
    their own sorted multisets so both increase monotonically along the
    chosen sequence, as the paper requires.

    The trip length under each candidate ordering comes from one batched
    haversine pass over the point columns; stable argsorts reproduce
    exactly the permutations Python's stable ``sorted`` yields.
    """
    arrays = TraceArrays.from_trip(trip)
    order_id = np.argsort(arrays.point_id, kind="stable")
    order_time = np.argsort(arrays.time_s, kind="stable")
    d_id = arrays.distance_under(order_id)
    d_time = arrays.distance_under(order_time)
    consistent = bool(
        np.array_equal(arrays.point_id[order_id], arrays.point_id[order_time])
    )
    if d_time < d_id:
        chosen = "time_s"
        sequence = [trip.points[i] for i in order_time]
    else:
        chosen = "point_id"
        sequence = [trip.points[i] for i in order_id]
    repaired = _realign(sequence)
    report = OrderingReport(
        trip_id=trip.trip_id,
        distance_by_id_m=d_id,
        distance_by_time_m=d_time,
        chosen=chosen,
        was_consistent=consistent,
    )
    return trip.with_points(repaired), report


def _realign(sequence: list[RoutePoint]) -> list[RoutePoint]:
    """Make ids and timestamps monotonic along ``sequence``.

    The value multisets are preserved — ids keep being the same ids and
    timestamps the same timestamps — only their assignment to positions
    changes, which is exactly the paper's "aligned with respect to the
    correct sequence to guarantee monotonic increase".
    """
    ids = sorted(p.point_id for p in sequence)
    times = sorted(p.time_s for p in sequence)
    return [
        replace(p, point_id=pid, time_s=ts)
        for p, pid, ts in zip(sequence, ids, times)
    ]
