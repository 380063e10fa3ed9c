"""Vectorized Viterbi must be bitwise-identical to the scalar decoder.

The production decoder replaces the per-candidate capped Dijkstras with
one many-to-many batch (``RouteBatch.resolve_costs``) and the
pure-Python forward pass with a NumPy one; the scalar decoder lives on
as the oracle in ``tests/oracles/matching.py``.  Exactness is the
contract: same matched points (edge, arc, score), same edge sequences,
same gap counts — under the flat engine and a prepared contraction
hierarchy, on random graphs with one-way edges and disconnected
components, and through whole study runs, serial and parallel.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import OuluStudy, StudyConfig
from repro.parallel import ExecutorConfig
from repro.matching.hmm import HmmConfig, HmmMatcher
from repro.obs.report import render_report
from repro.roadnet import prepare_ch
from repro.roadnet.routing import RouteCache
from repro.traces import FleetSpec
from repro.traces.model import RoutePoint
from tests.test_batch_routing import study_fingerprint
from tests.test_parallel_executor import _comparable_counters
from tests.oracles.matching import ScalarHmmMatcher, viterbi
from tests.test_roadnet_ch import build_random_city


def _to_xy(p: RoutePoint) -> tuple[float, float]:
    """Test points carry plane coordinates directly in (lat, lon)."""
    return (p.lat, p.lon)


def make_trip(graph, seed: int, n_points: int = 8,
              jitter_m: float = 6.0) -> list[RoutePoint]:
    """A noisy walk along graph edges (deterministic per seed)."""
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=lambda e: e.edge_id)
    points = []
    edge = rng.choice(edges)
    for i in range(n_points):
        # Mostly follow adjacent edges; sometimes teleport (forces gaps
        # and occasionally unreachable transitions on split graphs).
        if rng.random() < 0.2:
            edge = rng.choice(edges)
        else:
            near = [e for node in (edge.u, edge.v)
                    for e in graph.out_edges(node, respect_oneway=False)]
            edge = rng.choice(sorted(near, key=lambda e: e.edge_id) or [edge])
        arc = rng.uniform(0.0, edge.length)
        x, y = edge.geometry.interpolate(arc)
        points.append(RoutePoint(
            point_id=i, trip_id=seed, time_s=float(i),
            lat=x + rng.gauss(0.0, jitter_m),
            lon=y + rng.gauss(0.0, jitter_m),
        ))
    return points


def route_key(route):
    if route is None:
        return None
    return (
        tuple(route.edge_sequence),
        route.gaps_filled,
        tuple(
            (m.edge_id, m.arc_m, m.score, m.match_distance_m, m.snapped_xy)
            for m in route.matched
        ),
    )


def decode_both(graph, trips, engine=None):
    """(scalar keys, vectorized keys) with fresh caches for each pass."""
    keys = []
    for matcher_cls in (ScalarHmmMatcher, HmmMatcher):
        matcher = matcher_cls(
            graph, route_cache=RouteCache(), routing_engine=engine
        )
        keys.append([route_key(matcher.match(t, _to_xy)) for t in trips])
    return keys[0], keys[1]


class TestBitwiseEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.4]),
        components=st.sampled_from([1, 2]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_graphs_flat_engine(self, seed, oneway, components):
        graph = build_random_city(
            seed, oneway_fraction=oneway, components=components
        )
        trips = [make_trip(graph, seed * 7 + k) for k in range(3)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_graphs_ch_engine(self, seed, oneway):
        graph = build_random_city(seed, oneway_fraction=oneway)
        engine = prepare_ch(graph, weight="length")
        trips = [make_trip(graph, seed * 11 + k) for k in range(2)]
        scalar, vectorized = decode_both(graph, trips, engine=engine)
        assert scalar == vectorized

    def test_disconnected_layers(self):
        """Transitions across components are unreachable in both paths."""
        graph = build_random_city(3, components=2)
        trips = [make_trip(graph, 90 + k, n_points=10) for k in range(4)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized

    def test_single_point_trip(self):
        graph = build_random_city(5)
        trips = [make_trip(graph, 17, n_points=1)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized
        assert scalar[0] is not None

    def test_all_empty_layers_return_none(self):
        """Fixes far off the network find no candidates in either path."""
        graph = build_random_city(5)
        far = [
            RoutePoint(point_id=i, trip_id=0, time_s=float(i),
                       lat=1e6 + 100.0 * i, lon=1e6)
            for i in range(4)
        ]
        scalar, vectorized = decode_both(graph, [far])
        assert scalar == vectorized == [None]

    def test_tight_network_factor_masks_transitions(self):
        """A small cap exercises the ``through > cap`` mask everywhere."""
        graph = build_random_city(9)
        config = HmmConfig(max_network_factor=1.05)
        trips = [make_trip(graph, 23 + k) for k in range(3)]
        keys = []
        for matcher_cls in (ScalarHmmMatcher, HmmMatcher):
            matcher = matcher_cls(graph, config=config, route_cache=RouteCache())
            keys.append([route_key(matcher.match(t, _to_xy)) for t in trips])
        assert keys[0] == keys[1]


class TestStudyByteIdentity:
    def test_hmm_study_flag_on_off_serial_parallel(self, tmp_path, monkeypatch):
        """`repro study --matcher hmm` artefacts must not depend on the
        decoder implementation or the scheduling."""
        artifact = str(tmp_path / "oulu_ch.npz")

        def run(workers: int):
            config = StudyConfig(
                fleet=FleetSpec(n_days=2, seed=7),
                matcher="hmm",
                executor=ExecutorConfig(
                    workers=workers,
                    routing_engine="ch",
                    ch_artifact_path=artifact,
                ),
            )
            return OuluStudy(config).run()

        on = run(0)
        par_on = run(2)
        # The serial study again, decoding through the scalar oracle.
        monkeypatch.setattr(HmmMatcher, "_viterbi", viterbi)
        off = run(0)

        assert study_fingerprint(on) == study_fingerprint(off)
        assert study_fingerprint(on) == study_fingerprint(par_on)
        # matching.* counters (hmm_layers / hmm_transition_pairs /
        # hmm_dijkstra_avoided included) are comparable: deterministic
        # per trip, independent of decoder and scheduling.
        assert _comparable_counters(on) == _comparable_counters(off)
        assert _comparable_counters(on) == _comparable_counters(par_on)


class TestReportRendering:
    def test_hmm_batching_block(self):
        metrics = {"counters": {
            "matching.hmm_layers": 120,
            "matching.hmm_transition_pairs": 950,
            "matching.hmm_dijkstra_avoided": 431,
        }}
        out = render_report([], metrics)
        assert "HMM batching:" in out
        assert "120" in out
        assert "950" in out
        assert "431" in out

    def test_block_absent_without_hmm_counters(self):
        out = render_report([], {"counters": {"matching.calls": 3}})
        assert "HMM batching:" not in out
