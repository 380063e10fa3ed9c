"""Batched many-to-many routing: the bitwise-identity contract.

The batch layer is pure mechanism — ``route_matrix``/``route_pairs``
must answer exactly what repeated ``shortest_path`` calls would, the
``RouteBatch`` planner and cache batching must never change a result,
and a study run with batched gap-fill must produce byte-identical
artefacts to one on the per-gap loop (the ``PerPairEngine`` oracle in
``tests/oracles/routing.py``), serial or parallel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import OuluStudy, StudyConfig
from repro.matching import IncrementalMatcher
import repro.matching.factory
from repro.matching.gapfill import connect_matches
from repro.parallel import ExecutorConfig
from repro.roadnet import (
    RouteBatch,
    RouteCache,
    cached_shortest_path,
    load_ch,
    prepare_ch,
    route_matrix,
    route_pairs,
    save_ch,
)
from repro.roadnet.routing import PathResult
from repro.store import StoreConfig
from repro.traces import FleetSpec
from tests.oracles.routing import PerPairEngine
from tests.test_parallel_executor import _comparable_counters
from tests.test_roadnet_ch import build_random_city


def study_fingerprint(result) -> tuple:
    """Every externally visible artefact of a study run."""
    cells = tuple(sorted(
        (key, tuple(sorted(counts.items())))
        for key, counts in result.cell_features.items()
    ))
    routes = tuple(
        (i, r.segment_id, r.car_id, tuple(r.edge_sequence), r.gaps_filled)
        for i, r in sorted(result.matched.items())
    )
    return (
        tuple(result.route_stats),
        routes,
        tuple(result.funnel),
        tuple(result.kept_transitions),
        cells,
    )


def sample_endpoints(graph, seed: int, k: int = 5) -> list[int]:
    """A deterministic endpoint sample, plus one id outside the graph."""
    ids = sorted(node.node_id for node in graph.nodes())
    step = max(1, len(ids) // k)
    return ids[::step][:k] + [10**9]


# -- matrix vs point-to-point ------------------------------------------------


class TestMatrixBitwiseIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.4]),
        components=st.sampled_from([1, 2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_route_matrix_equals_repeated_shortest_path(
        self, seed, oneway, components
    ):
        graph = build_random_city(
            seed, oneway_fraction=oneway, components=components
        )
        engine = prepare_ch(graph, weight="length")
        endpoints = sample_endpoints(graph, seed)
        matrix = route_matrix(engine, endpoints, endpoints)
        for i, s in enumerate(endpoints):
            for j, t in enumerate(endpoints):
                reference = engine.shortest_path(s, t)
                cost = matrix.costs[i, j]
                if reference.found:
                    assert cost == reference.cost
                else:
                    assert math.isinf(cost)
                assert matrix.path(s, t) == reference

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_route_pairs_equals_repeated_shortest_path(self, seed, oneway):
        graph = build_random_city(seed, oneway_fraction=oneway)
        engine = prepare_ch(graph, weight="length")
        endpoints = sample_endpoints(graph, seed)
        pairs = [(s, t) for s in endpoints for t in endpoints]
        results = route_pairs(engine, pairs)
        assert len(results) == len(pairs)
        for (s, t), result in zip(pairs, results):
            assert result == engine.shortest_path(s, t)

    def test_unreachable_pairs_use_inf_sentinel(self):
        graph = build_random_city(3, components=2)
        engine = prepare_ch(graph, weight="length")
        ids = sorted(node.node_id for node in graph.nodes())
        matrix = route_matrix(engine, ids, ids)
        unreachable = np.isinf(matrix.costs)
        assert unreachable.any(), "two components must leave unreachable pairs"
        # Every inf agrees with the point-to-point verdict.
        for i, s in enumerate(ids):
            for j, t in enumerate(ids):
                assert unreachable[i, j] == (not engine.shortest_path(s, t).found)


# -- RouteBatch planner ------------------------------------------------------


class TestRouteBatch:
    def test_flat_fallback_matches_engine(self):
        graph = build_random_city(11, oneway_fraction=0.3)
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(ids[0], ids[-1]), (ids[1], ids[-2]), (ids[0], ids[-1])]
        for engine in (None, PerPairEngine(prepare_ch(graph, weight="length"))):
            batch = RouteBatch(graph, weight="length", engine=engine)
            assert not batch.supports_many
            resolved = batch.resolve(pairs)
            assert len(resolved) == 2  # duplicate collapsed
            for s, t in pairs:
                assert resolved[(s, t)] == cached_shortest_path(
                    graph, s, t, "length", engine=engine
                )

    def test_ch_batch_matches_engine_and_fills_cache(self):
        graph = build_random_city(12)
        engine = prepare_ch(graph, weight="length")
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, t) for s in ids[:4] for t in ids[-4:]]
        cache = RouteCache(max_entries=100)
        batch = RouteBatch(graph, weight="length", cache=cache, engine=engine)
        assert batch.supports_many
        resolved = batch.resolve(pairs)
        for s, t in pairs:
            assert resolved[(s, t)] == engine.shortest_path(s, t)
        # Second resolve answers fully from cache.
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            again = batch.resolve(pairs)
        assert again == resolved
        assert registry.counter("routing.route_cache_hits").value == len(pairs)
        assert registry.counter("routing.route_cache_misses").value == 0

    def test_weight_mismatch_rejected(self):
        graph = build_random_city(13)
        engine = prepare_ch(graph, weight="length")
        with pytest.raises(ValueError, match="weight"):
            RouteBatch(graph, weight="time", engine=engine)


# -- RouteCache batch operations ---------------------------------------------


class TestRouteCacheBatch:
    def test_get_many_splits_hits_and_misses_in_order(self):
        cache = RouteCache(max_entries=10)
        hit_path = PathResult(nodes=(1, 2), edges=(7,), cost=5.0)
        cache.put(1, 2, "length", hit_path)
        hits, misses = cache.get_many([(3, 4), (1, 2), (5, 6)], "length")
        assert hits == {(1, 2): hit_path}
        assert misses == [(3, 4), (5, 6)]

    def test_get_many_refreshes_lru_position(self):
        cache = RouteCache(max_entries=2)
        a = PathResult(nodes=(1,), edges=(), cost=0.0)
        b = PathResult(nodes=(2,), edges=(), cost=0.0)
        cache.put(1, 1, "length", a)
        cache.put(2, 2, "length", b)
        cache.get_many([(1, 1)], "length")  # (1,1) becomes most recent
        cache.put(3, 3, "length", PathResult(nodes=(3,), edges=(), cost=0.0))
        assert cache.get(1, 1, "length") is not None
        assert cache.get(2, 2, "length") is None  # evicted, not (1,1)

    def test_put_many_bounds_entries_and_sets_gauge(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=3)
            results = {
                (i, i + 1): PathResult(nodes=(i,), edges=(), cost=float(i))
                for i in range(5)
            }
            cache.put_many(results, "length")
        assert len(cache) == 3
        assert registry.gauge("routing.route_cache_entries").value == 3
        assert registry.counter("routing.route_cache_evictions").value == 2

    def test_hit_rate_gauge_tracks_lookups(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=10)
            cache.put(1, 2, "length", PathResult(nodes=(1, 2), edges=(7,), cost=1.0))
            cache.get(9, 9, "length")  # miss
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.0
            cache.get(1, 2, "length")  # hit
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.5
            cache.get_many([(1, 2), (8, 8)], "length")  # hit + miss
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.5


# -- gap-fill batch on/off identity ------------------------------------------


class TestGapfillBatchIdentity:
    def test_matched_routes_identical_batch_on_and_off(
        self, city, clean_result, to_xy
    ):
        engine = prepare_ch(city.graph, weight="length")
        matchers = {
            True: IncrementalMatcher(city.graph, routing_engine=engine),
            False: IncrementalMatcher(
                city.graph, routing_engine=PerPairEngine(engine)
            ),
        }
        segments = clean_result.segments[:15]
        compared = 0
        for segment in segments:
            routes = {
                flag: matcher.match(
                    segment.points, to_xy,
                    segment_id=segment.segment_id, car_id=segment.car_id,
                )
                for flag, matcher in matchers.items()
            }
            if routes[True] is None:
                assert routes[False] is None
                continue
            assert routes[True].edge_sequence == routes[False].edge_sequence
            assert routes[True].gaps_filled == routes[False].gaps_filled
            compared += 1
        assert compared > 0

    def test_batched_counter_increments_only_with_capable_engine(self, city):
        graph = build_random_city(21)
        engine = prepare_ch(graph, weight="length")
        ids = sorted(node.node_id for node in graph.nodes())
        registry = obs.MetricsRegistry()

        # A route with no gaps (single edge) never batches.
        from repro.matching.types import MatchedPoint, MatchedRoute
        from repro.traces.model import RoutePoint

        def matched_route():
            edge = next(iter(graph.edges()))
            point = RoutePoint(point_id=1, trip_id=1, lat=0.0, lon=0.0,
                               time_s=0.0, speed_kmh=10.0)
            return MatchedRoute(segment_id=1, car_id=1, matched=[
                MatchedPoint(point=point, edge_id=edge.edge_id, arc_m=0.0,
                             snapped_xy=(0.0, 0.0), match_distance_m=0.0,
                             score=0.0),
            ])

        with obs.use_registry(registry):
            connect_matches(graph, matched_route(), engine=engine)
        assert registry.counter("routing.gapfill_batched").value == 0


# -- artifact format v1 back-compat ------------------------------------------


class TestArtifactBackCompat:
    def test_v1_artifact_loads_and_answers_identically(self, tmp_path):
        graph = build_random_city(31, oneway_fraction=0.3)
        engine = prepare_ch(graph, weight="length")
        v2_path = tmp_path / "v2.npz"
        save_ch(engine, v2_path)

        # Rewrite as a v1 artifact: drop the permutation arrays.
        with np.load(v2_path, allow_pickle=False) as doc:
            v1_fields = {
                name: doc[name]
                for name in doc.files
                if name != "version" and not name.startswith("up_")
            }
        v1_path = tmp_path / "v1.npz"
        np.savez_compressed(v1_path, version=np.int64(1), **v1_fields)

        loaded = load_ch(v1_path)
        # The engine reconstructs the permutation the save omitted...
        np.testing.assert_array_equal(loaded.up_fwd_offsets, engine.up_fwd_offsets)
        np.testing.assert_array_equal(loaded.up_fwd_arcs, engine.up_fwd_arcs)
        # ...and answers identically.
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, t) for s in ids[:4] for t in ids[-4:]]
        assert route_pairs(loaded, pairs) == route_pairs(engine, pairs)
        for s, t in pairs:
            assert loaded.shortest_path(s, t) == engine.shortest_path(s, t)

    def test_v2_round_trip_preserves_permutation(self, tmp_path):
        graph = build_random_city(32)
        engine = prepare_ch(graph, weight="length")
        path = tmp_path / "ch.npz"
        save_ch(engine, path)
        loaded = load_ch(path)
        np.testing.assert_array_equal(loaded.up_fwd_offsets, engine.up_fwd_offsets)
        np.testing.assert_array_equal(loaded.up_fwd_arcs, engine.up_fwd_arcs)
        np.testing.assert_array_equal(loaded.up_bwd_offsets, engine.up_bwd_offsets)
        np.testing.assert_array_equal(loaded.up_bwd_arcs, engine.up_bwd_arcs)


# -- study byte-identity -----------------------------------------------------


_TIMING_KEYS = {"stage_seconds", "match_seconds", "elapsed_s"}


def _strip_timings(doc):
    """Drop wall-clock fields (how long a stage took, never what it
    computed) so the rest of the bytes can be compared exactly."""
    if isinstance(doc, dict):
        return {
            k: _strip_timings(v)
            for k, v in doc.items()
            if k not in _TIMING_KEYS
        }
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


def _hash_tree(root) -> dict:
    """sha256 of every store file; shard metas are canonicalised with
    timing fields removed, and the wall-clock column is skipped."""
    import hashlib
    import json

    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name == "c_elapsed_s.npy":
            continue
        if path.name == "meta.json":
            payload = json.dumps(
                _strip_timings(json.loads(path.read_text())), sort_keys=True
            ).encode()
        else:
            payload = path.read_bytes()
        out[str(path.relative_to(root))] = hashlib.sha256(payload).hexdigest()
    return out


class TestStudyBatchEquivalence:
    def test_batch_on_off_serial_parallel_byte_identity(
        self, tmp_path, monkeypatch
    ):
        """Batching must never change what a study computes.

        Three runs of the same small study — serial/batched,
        serial/per-gap, parallel/batched — share one CH artifact; the
        serial pair also persists store shards so the on-disk bytes can
        be compared directly.
        """
        artifact = str(tmp_path / "oulu_ch.npz")

        def run(workers: int, store_dir=None):
            config = StudyConfig(
                fleet=FleetSpec(n_days=2, seed=7),
                executor=ExecutorConfig(
                    workers=workers,
                    routing_engine="ch",
                    ch_artifact_path=artifact,
                ),
                store=(
                    StoreConfig(dir=str(store_dir))
                    if store_dir is not None
                    else None
                ),
            )
            return OuluStudy(config).run()

        on = run(0, tmp_path / "store_on")
        par = run(2)
        # The serial study again, gap-filling through the per-gap loop.
        make_engine = repro.matching.factory.make_routing_engine
        monkeypatch.setattr(
            repro.matching.factory, "make_routing_engine",
            lambda *args, **kwargs: PerPairEngine(make_engine(*args, **kwargs)),
        )
        off = run(0, tmp_path / "store_off")
        assert on.metrics["counters"]["routing.gapfill_batched"] > 0
        assert "routing.gapfill_batched" not in off.metrics["counters"]

        assert study_fingerprint(on) == study_fingerprint(off)
        assert study_fingerprint(on) == study_fingerprint(par)
        assert _comparable_counters(on) == _comparable_counters(off)
        assert on.funnel == off.funnel == par.funnel
        assert on.route_stats == off.route_stats == par.route_stats
        # Store shards: literally the same bytes on disk.
        assert _hash_tree(tmp_path / "store_on") == _hash_tree(
            tmp_path / "store_off"
        )
