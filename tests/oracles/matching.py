"""Scalar references for candidate scoring and Viterbi decoding."""

from __future__ import annotations

import math

from repro.geo.geometry import Point
from repro.matching.candidates import Candidate, CandidateConfig, _distance_score
from repro.matching.hmm import _UNREACHABLE, HmmMatcher, _backtrack
from repro.matching.types import edge_entries, edge_exits
from repro.roadnet.graph import RoadEdge, RoadGraph
from repro.roadnet.routing import dijkstra

# -- candidates ---------------------------------------------------------------


def _orientation_score(
    movement: Point | None, edge: RoadEdge, arc: float, config: CandidateConfig
) -> float:
    """Orientation score plus the one-way legality penalty."""
    if movement is None or movement == (0.0, 0.0):
        return 0.0
    heading = edge.geometry.heading_at(arc)
    norm = math.hypot(*movement)
    if norm == 0.0:
        return 0.0
    cosang = (movement[0] * heading[0] + movement[1] * heading[1]) / norm
    both_ways = edge.forward_allowed and edge.backward_allowed
    if both_ways:
        score = config.mu_orientation * abs(cosang)
    else:
        # One-way: the sign matters. Forward-only wants positive cos
        # (movement along u->v geometry), backward-only negative.
        directed = cosang if edge.forward_allowed else -cosang
        score = config.mu_orientation * directed
        if directed < -0.2:
            score -= config.oneway_penalty
    return score


def candidates_for_point(
    graph: RoadGraph,
    xy: Point,
    movement: Point | None,
    config: CandidateConfig | None = None,
) -> list[Candidate]:
    """Scored candidates for one fix, best first (one projection per edge)."""
    config = config or CandidateConfig()
    out: list[Candidate] = []
    for edge in graph.edges_near(xy, config.radius_m):
        snapped, arc, dist = edge.geometry.project(xy)
        score = _distance_score(dist, config) + _orientation_score(
            movement, edge, arc, config
        )
        out.append(
            Candidate(edge=edge, arc_m=arc, snapped_xy=snapped, distance_m=dist, score=score)
        )
    out.sort(key=lambda c: (-c.score, c.edge.edge_id))
    return out[: config.max_candidates]


def candidates_for_points(
    graph: RoadGraph,
    xys: list[Point],
    movements: list[Point | None],
    config: CandidateConfig | None = None,
) -> list[list[Candidate]]:
    """Drop-in for :func:`repro.matching.candidates.candidates_for_points`."""
    return [
        candidates_for_point(graph, xy, movement, config)
        for xy, movement in zip(xys, movements)
    ]


# -- Viterbi ------------------------------------------------------------------


def _emission(matcher: HmmMatcher, cand: Candidate) -> float:
    z = cand.distance_m / matcher.config.sigma_m
    return -0.5 * z * z


def network_distance(
    prev: Candidate,
    cur: Candidate,
    dist_maps: dict[int, dict[int, float]],
    cap: float,
) -> float | None:
    if prev.edge.edge_id == cur.edge.edge_id:
        return abs(cur.arc_m - prev.arc_m)
    best: float | None = None
    for exit_node, dist_map in dist_maps.items():
        d1 = (
            prev.edge.length - prev.arc_m
            if exit_node == prev.edge.v
            else prev.arc_m
        )
        for entry in edge_entries(cur.edge):
            through = dist_map.get(entry)
            # A capped Dijkstra settles one node beyond the budget and
            # returns tentative frontier labels; masking ``through > cap``
            # pins the reachable set to ``{node: d* <= cap}``.
            if through is None or through > cap:
                continue
            d2 = cur.arc_m if entry == cur.edge.u else cur.edge.length - cur.arc_m
            total = d1 + through + d2
            if total <= cap * 1.5 and (best is None or total < best):
                best = total
    return best


def transition_matrix(
    matcher: HmmMatcher,
    prev_layer: list[Candidate],
    cur_layer: list[Candidate],
    straight: float,
    cap: float,
) -> list[list[float]]:
    """Log transition scores between two layers: one capped Dijkstra per
    exit endpoint of each previous candidate, shared across the layer."""
    out: list[list[float]] = []
    for prev in prev_layer:
        dist_maps: dict[int, dict[int, float]] = {}
        for exit_node in edge_exits(prev.edge):
            settled = dijkstra(
                matcher.graph, exit_node, target=None, weight="length", max_cost=cap
            )
            dist_maps[exit_node] = {n: c for n, (c, __, ___) in settled.items()}
        row: list[float] = []
        for cur in cur_layer:
            nd = network_distance(prev, cur, dist_maps, cap)
            if nd is None:
                row.append(_UNREACHABLE)
            else:
                row.append(-abs(nd - straight) / matcher.config.beta_m)
        out.append(row)
    return out


def viterbi(
    matcher: HmmMatcher,
    layers: list[list[Candidate]],
    straights: list[float],
    caps: list[float],
    *batched,
) -> tuple[list[int], list[float]]:
    """Pure-Python forward pass; same signature as ``HmmMatcher._viterbi``
    (the batched query set in ``batched`` is ignored)."""
    n = len(layers)
    log_prob: list[list[float]] = [[_emission(matcher, c) for c in layers[0]]]
    back: list[list[int]] = [[-1] * len(layers[0])]
    for i in range(1, n):
        prev_layer = layers[i - 1]
        cur_layer = layers[i]
        trans = transition_matrix(
            matcher, prev_layer, cur_layer, straights[i - 1], caps[i - 1]
        )
        row_scores: list[float] = []
        row_back: list[int] = []
        for j, cand in enumerate(cur_layer):
            emit = _emission(matcher, cand)
            best_k = -1
            best_val = -math.inf
            for k in range(len(prev_layer)):
                val = log_prob[i - 1][k] + trans[k][j]
                if val > best_val:
                    best_val = val
                    best_k = k
            row_scores.append(best_val + emit)
            row_back.append(best_k)
        log_prob.append(row_scores)
        back.append(row_back)
    return _backtrack(layers, log_prob, back)


class ScalarHmmMatcher(HmmMatcher):
    """:class:`HmmMatcher` decoding through the scalar :func:`viterbi`."""

    _viterbi = viterbi
