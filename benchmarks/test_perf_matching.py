"""Engineering benches: map-matching throughput, incremental vs HMM.

``test_perf_hmm_matcher`` publishes ``hmm_viterbi_ratio`` — the
production Viterbi decode (NumPy forward pass + one many-to-many
transition-distance batch per trip, prepared CH engine) vs the scalar
reference decode in ``tests/oracles/matching.py`` (pure-Python forward
pass, one capped Dijkstra per previous-candidate exit per transition)
over the same pre-built candidate layers.  Candidate generation and gap filling are identical
stages on both sides and are excluded from the measurement.  The
committed gate lives in ``tools/bench_compare.py`` (limit 0.25, i.e.
the decode must stay >= 4x faster); ``hmm_viterbi_flat_ratio`` (same
kernel on the flat engine, where cache misses fall back to
multi-target Dijkstras) is published alongside for context, ungated.
"""

import math
import time

import pytest

from repro.matching import HmmMatcher, IncrementalMatcher
from repro.matching.candidates import candidates_for_points
from repro.matching.hmm import _collect_transition_pairs
from repro.matching.types import edge_entries, edge_exits, movement_directions
from repro.roadnet.ch import prepare_ch
from repro.roadnet.routing import RouteCache

from benchmarks.test_perf_route_matrix import _reset_matrix_memos
from tests.oracles.matching import ScalarHmmMatcher


def _segments(bench_study, n):
    return bench_study.clean.segments[:n]


@pytest.fixture(scope="module")
def hmm_decode_workload(bench_study):
    """Pre-built Viterbi inputs for the decode bench, prepared once.

    Mirrors :meth:`HmmMatcher.match` up to the decoder call: candidate
    layers (empty layers dropped), straight-line distances, transition
    caps, and the trip's batched query set.
    """
    city = bench_study.city
    projector = city.projector
    matcher = HmmMatcher(city.graph)
    prepped = []
    for seg in _segments(bench_study, 150):
        xys = [projector.to_xy(p.lat, p.lon) for p in seg.points]
        movements = movement_directions(xys)
        all_candidates = candidates_for_points(
            city.graph, xys, movements, matcher.config.candidates
        )
        layers, kept_xys = [], []
        for xy, cands in zip(xys, all_candidates):
            if cands:
                layers.append(cands)
                kept_xys.append(xy)
        if len(layers) < 2:
            continue
        straights = [
            math.hypot(
                kept_xys[i][0] - kept_xys[i - 1][0],
                kept_xys[i][1] - kept_xys[i - 1][1],
            )
            for i in range(1, len(layers))
        ]
        caps = [
            max(300.0, s * matcher.config.max_network_factor)
            for s in straights
        ]
        exits_per = [[edge_exits(c.edge) for c in layer] for layer in layers]
        entries_per = [
            [edge_entries(c.edge) for c in layer] for layer in layers
        ]
        pairs, source_caps, __ = _collect_transition_pairs(
            layers, caps, exits_per, entries_per
        )
        prepped.append(
            (layers, straights, caps, pairs, source_caps, exits_per,
             entries_per)
        )
    assert len(prepped) >= 100  # the bench needs a real workload
    return city.graph, prepped


def test_perf_incremental_matcher(benchmark, bench_study, save_artifact):
    city = bench_study.city
    segments = _segments(bench_study, 40)
    matcher = IncrementalMatcher(city.graph)

    def to_xy(p):
        return city.projector.to_xy(p.lat, p.lon)

    def run():
        matched = 0
        for seg in segments:
            route = matcher.match(seg.points, to_xy, seg.segment_id, seg.car_id)
            if route is not None and route.edge_sequence:
                matched += 1
        return matched

    matched = benchmark(run)
    save_artifact(
        "perf_matching_incremental.txt",
        f"matched {matched}/{len(segments)} segments per round",
    )
    assert matched >= len(segments) * 0.95


def test_perf_hmm_matcher(benchmark, bench_study, hmm_decode_workload):
    graph, prepped = hmm_decode_workload
    ch_engine = prepare_ch(graph, weight="length")

    def scalar_sweep():
        matcher = ScalarHmmMatcher(graph, route_cache=RouteCache())
        t0 = time.perf_counter()
        for args in prepped:
            matcher._viterbi(*args)
        return time.perf_counter() - t0

    def vectorized_sweep(engine):
        if engine is not None:
            _reset_matrix_memos(engine)
        matcher = HmmMatcher(
            graph, route_cache=RouteCache(), routing_engine=engine
        )
        t0 = time.perf_counter()
        for args in prepped:
            matcher._viterbi(*args)
        return time.perf_counter() - t0

    def measure_once(engine):
        return vectorized_sweep(engine) / scalar_sweep()

    measure_once(ch_engine)  # warm allocator / code paths
    ratio_ch = min(measure_once(ch_engine) for __ in range(3))
    ratio_flat = min(measure_once(None) for __ in range(3))
    benchmark.extra_info["hmm_viterbi_ratio"] = round(ratio_ch, 4)
    benchmark.extra_info["hmm_viterbi_flat_ratio"] = round(ratio_flat, 4)
    benchmark.extra_info["hmm_decode_trips"] = len(prepped)
    benchmark.pedantic(
        lambda: vectorized_sweep(ch_engine), rounds=3, iterations=1
    )
    # The committed gate lives in tools/bench_compare.py (limit 0.25);
    # this looser assert just catches a broken kernel immediately.
    assert ratio_ch < 1.0, (
        f"vectorized Viterbi slower than scalar ({ratio_ch:.2f}x)"
    )


def test_hmm_matcher_end_to_end_sanity(bench_study):
    """The full vectorized matcher still matches every bench segment."""
    city = bench_study.city
    segments = _segments(bench_study, 10)
    engine = prepare_ch(city.graph, weight="length")
    matcher = HmmMatcher(
        city.graph, route_cache=RouteCache(), routing_engine=engine
    )

    def to_xy(p):
        return city.projector.to_xy(p.lat, p.lon)

    matched = sum(
        1 for seg in segments
        if matcher.match(seg.points, to_xy) is not None
    )
    assert matched == len(segments)
