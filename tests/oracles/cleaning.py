"""Scalar references for ordering repair and Table 2 segmentation."""

from __future__ import annotations

from repro.cleaning.ordering import OrderingReport, _realign
from repro.cleaning.segmentation import (
    SegmentationConfig,
    SegmentationReport,
    TripSegment,
    _stop_rule,
)
from repro.traces.model import RoutePoint, Trip, trip_distance_m


def split_at_stops(
    points: list[RoutePoint],
    config: SegmentationConfig,
    window_1_s: float,
    report: SegmentationReport,
) -> list[list[RoutePoint]]:
    """Split a point sequence wherever a stop rule fires on a gap."""
    if not points:
        return []
    pieces: list[list[RoutePoint]] = []
    current: list[RoutePoint] = [points[0]]
    for a, b in zip(points, points[1:]):
        rule = _stop_rule(a, b, config, window_1_s)
        if rule:
            report.rule_hits[rule] += 1
            if len(current) >= 2:
                pieces.append(current)
            current = [b]
        else:
            current.append(b)
    if len(current) >= 2:
        pieces.append(current)
    return pieces


def segment_trip(
    trip: Trip,
    config: SegmentationConfig | None = None,
    first_segment_id: int = 1,
) -> tuple[list[TripSegment], SegmentationReport]:
    """Two-round Table 2 segmentation, one scalar haversine per gap."""
    config = config or SegmentationConfig()
    report = SegmentationReport(trips_processed=1)
    first_round = split_at_stops(trip.points, config, config.rule1_window_s, report)

    final_pieces: list[list[RoutePoint]] = []
    for piece in first_round:
        if trip_distance_m(piece) > config.rule5_length_m:
            report.rule_hits[5] += 1
            final_pieces.extend(
                split_at_stops(piece, config, config.rule5_window_s, report)
            )
        else:
            final_pieces.append(piece)

    segments = [
        TripSegment(
            segment_id=first_segment_id + i,
            trip_id=trip.trip_id,
            car_id=trip.car_id,
            index=i,
            points=piece,
        )
        for i, piece in enumerate(final_pieces)
    ]
    report.segments_created = len(segments)
    return segments, report


def repair_ordering(trip: Trip) -> tuple[Trip, OrderingReport]:
    """Ordering repair with Python's stable sorts and a per-gap length walk."""
    by_id = sorted(trip.points, key=lambda p: p.point_id)
    by_time = sorted(trip.points, key=lambda p: p.time_s)
    d_id = trip_distance_m(by_id)
    d_time = trip_distance_m(by_time)
    consistent = [p.point_id for p in by_id] == [p.point_id for p in by_time]
    if d_time < d_id:
        chosen = "time_s"
        sequence = by_time
    else:
        chosen = "point_id"
        sequence = by_id
    report = OrderingReport(
        trip_id=trip.trip_id,
        distance_by_id_m=d_id,
        distance_by_time_m=d_time,
        chosen=chosen,
        was_consistent=consistent,
    )
    return trip.with_points(_realign(sequence)), report
