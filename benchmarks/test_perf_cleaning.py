"""Engineering benches: production (vectorized) vs scalar-oracle cleaning.

The vectorized kernels earn their keep on long traces — a year-scale
corpus replays whole days of points through segmentation at once — so
these benches run on dense synthetic trips (thousands of points), where
array construction amortises.  The scalar twins of each bench time the
reference implementations in ``tests/oracles/cleaning.py`` to keep
their cost on record, and the speedup test is the hard gate the
production kernel must clear: segmentation at least 3x faster than the
scalar walk on the same workload.
"""

import random
import statistics
import time

from repro.cleaning.ordering import repair_ordering
from repro.cleaning.segmentation import segment_trip
from repro.traces.model import RoutePoint, Trip
from tests.oracles import cleaning as cleaning_oracle

import pytest

#: Dense-trace workload: a handful of long trips rather than many short
#: ones — the regime the columnar kernels target.
N_TRIPS = 8
POINTS_PER_TRIP = 4000


def _dense_trip(trip_id: int, n: int, seed: int) -> Trip:
    rng = random.Random(seed)
    lat, lon, t = 65.0, 25.4, 0.0
    points = []
    for i in range(n):
        lat += rng.gauss(0.0, 0.0004)
        lon += rng.gauss(0.0, 0.0008)
        t += rng.uniform(2.0, 12.0)
        points.append(
            RoutePoint(
                point_id=i + 1,
                trip_id=trip_id,
                lat=lat,
                lon=lon,
                time_s=t,
                speed_kmh=rng.uniform(0.0, 80.0),
                fuel_ml=10.0 * i,
            )
        )
    return Trip(trip_id=trip_id, car_id=1 + trip_id % 7, points=points)


@pytest.fixture(scope="module")
def dense_trips():
    return [
        _dense_trip(trip_id=k + 1, n=POINTS_PER_TRIP, seed=100 + k)
        for k in range(N_TRIPS)
    ]


def _segment_all(trips, vectorized):
    segment = segment_trip if vectorized else cleaning_oracle.segment_trip
    total = 0
    for trip in trips:
        segments, __ = segment(trip)
        total += len(segments)
    return total


def _order_all(trips, vectorized):
    repair = repair_ordering if vectorized else cleaning_oracle.repair_ordering
    consistent = 0
    for trip in trips:
        __, report = repair(trip)
        consistent += report.was_consistent
    return consistent


def test_perf_segmentation_scalar(benchmark, dense_trips):
    total = benchmark(lambda: _segment_all(dense_trips, vectorized=False))
    assert total >= N_TRIPS  # every trip yields at least one segment


def test_perf_segmentation_vectorized(benchmark, dense_trips):
    total = benchmark(lambda: _segment_all(dense_trips, vectorized=True))
    assert total >= N_TRIPS


def test_perf_ordering_scalar(benchmark, dense_trips):
    consistent = benchmark(lambda: _order_all(dense_trips, vectorized=False))
    assert consistent == N_TRIPS  # the dense trips arrive in order


def test_perf_ordering_vectorized(benchmark, dense_trips):
    consistent = benchmark(lambda: _order_all(dense_trips, vectorized=True))
    assert consistent == N_TRIPS


def test_vectorized_segmentation_at_least_3x_faster(dense_trips):
    def sweep(vectorized):
        start = time.perf_counter()
        _segment_all(dense_trips, vectorized=vectorized)
        return time.perf_counter() - start

    scalar = statistics.median(sweep(False) for __ in range(7))
    vectorized = statistics.median(sweep(True) for __ in range(7))
    assert scalar / vectorized >= 3.0, (
        f"vectorized segmentation speedup only {scalar / vectorized:.2f}x"
    )


def test_vectorized_results_identical_on_bench_workload(dense_trips):
    # The perf workload itself doubles as an equivalence witness.
    for trip in dense_trips:
        scalar_segments, scalar_report = cleaning_oracle.segment_trip(trip)
        vec_segments, vec_report = segment_trip(trip)
        assert scalar_report.rule_hits == vec_report.rule_hits
        assert [s.points for s in scalar_segments] == [s.points for s in vec_segments]
