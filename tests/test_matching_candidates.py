"""Tests for repro.matching.candidates."""

import pytest

from repro.geo.geometry import LineString
from repro.matching.candidates import CandidateConfig, candidates_for_points
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode


def candidates_for_point(graph, xy, movement, config=None):
    """Candidates for one fix through the production batch kernel."""
    return candidates_for_points(graph, [xy], [movement], config)[0]


def build_parallel_roads():
    """Two parallel EW roads 60 m apart; the northern one is one-way east."""
    g = RoadGraph()
    g.add_node(RoadNode(1, (0.0, 0.0)))
    g.add_node(RoadNode(2, (200.0, 0.0)))
    g.add_node(RoadNode(3, (0.0, 60.0)))
    g.add_node(RoadNode(4, (200.0, 60.0)))
    south = LineString([(0, 0), (200, 0)])
    g.add_edge(RoadEdge(1, 1, 2, south,
                        (ElementSpan(1, 0.0, south.length, False, 40.0),)))
    north = LineString([(0, 60), (200, 60)])
    g.add_edge(RoadEdge(2, 3, 4, north,
                        (ElementSpan(2, 0.0, north.length, False, 40.0),),
                        forward_allowed=True, backward_allowed=False))
    return g


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateConfig(radius_m=0.0)
        with pytest.raises(ValueError):
            CandidateConfig(max_candidates=0)


class TestCandidates:
    def setup_method(self):
        self.g = build_parallel_roads()

    def test_nearest_edge_scores_best(self):
        cands = candidates_for_point(self.g, (100.0, 10.0), (1.0, 0.0))
        assert cands[0].edge.edge_id == 1
        assert cands[0].distance_m == pytest.approx(10.0)

    def test_radius_limits_candidates(self):
        config = CandidateConfig(radius_m=20.0)
        cands = candidates_for_point(self.g, (100.0, 10.0), None, config)
        assert [c.edge.edge_id for c in cands] == [1]

    def test_max_candidates_cap(self):
        config = CandidateConfig(radius_m=100.0, max_candidates=1)
        cands = candidates_for_point(self.g, (100.0, 30.0), (1.0, 0.0), config)
        assert len(cands) == 1

    def test_empty_when_nothing_near(self):
        assert candidates_for_point(self.g, (100.0, 5000.0), None) == []

    def test_orientation_breaks_tie(self):
        # Midway between roads; movement east: both roads eastbound-legal,
        # orientation equal -> distances equal -> both present.
        cands = candidates_for_point(self.g, (100.0, 30.0), (1.0, 0.0))
        assert {c.edge.edge_id for c in cands} == {1, 2}

    def test_oneway_violation_penalised(self):
        # Moving WEST midway between roads: the one-way (east only) north
        # road must score below the two-way south road.
        cands = candidates_for_point(self.g, (100.0, 30.0), (-1.0, 0.0))
        assert cands[0].edge.edge_id == 1
        scores = {c.edge.edge_id: c.score for c in cands}
        assert scores[1] > scores[2]

    def test_stationary_point_uses_distance_only(self):
        cands = candidates_for_point(self.g, (100.0, 10.0), None)
        assert cands[0].edge.edge_id == 1

    def test_snapped_point_on_edge(self):
        cands = candidates_for_point(self.g, (100.0, 10.0), (1.0, 0.0))
        best = cands[0]
        assert best.snapped_xy == pytest.approx((100.0, 0.0))
        assert best.arc_m == pytest.approx(100.0)

    def test_scores_sorted_descending(self):
        cands = candidates_for_point(self.g, (100.0, 30.0), (1.0, 0.0),
                                     CandidateConfig(radius_m=100.0))
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)
