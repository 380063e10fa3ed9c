"""Candidate generation and scoring for map matching.

Candidates are edges near a fix, scored with the Brakatsoulas et al.
distance and orientation functions:

* distance score ``s_d = mu_d - a * d^n`` (mu_d = 10, a = 0.17, n = 1.4);
* orientation score ``s_o = mu_o * cos(alpha)`` where ``alpha`` is the
  angle between the movement direction and the edge heading (mu_o = 10).

The paper enhances matching with map direction data: movement against a
one-way edge's only allowed direction incurs a penalty, so the matcher
prefers the legal carriageway.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.geo.geometry import Point
from repro.roadnet.graph import RoadEdge, RoadGraph


@dataclass(frozen=True)
class CandidateConfig:
    """Candidate search and scoring parameters."""

    radius_m: float = 60.0
    max_candidates: int = 6
    mu_distance: float = 10.0
    distance_a: float = 0.17
    distance_exp: float = 1.4
    mu_orientation: float = 10.0
    oneway_penalty: float = 8.0

    def __post_init__(self) -> None:
        if self.radius_m <= 0 or self.max_candidates < 1:
            raise ValueError("radius_m and max_candidates must be positive")


@dataclass(frozen=True)
class Candidate:
    """A scored candidate match of one fix onto one edge."""

    edge: RoadEdge
    arc_m: float
    snapped_xy: Point
    distance_m: float
    score: float


def _distance_score(d: float, config: CandidateConfig) -> float:
    return config.mu_distance - config.distance_a * d**config.distance_exp


class EdgeArrays:
    """Flattened per-segment geometry of a whole road graph.

    Every edge's polyline segments are concatenated into parallel columns
    (endpoints, deltas, cumulative arc lengths, unit headings) so that the
    batched candidate generator can project many fixes onto many edges in
    a handful of array operations.  Values are byte-identical to what the
    per-edge :class:`~repro.geo.geometry.LineString` caches hold — the
    headings are normalised with ``math.hypot`` exactly as
    ``LineString.heading_at`` does.
    """

    __slots__ = (
        "edges", "slot_by_edge_id", "row_offset", "n_segs", "length",
        "forward", "backward", "ax", "ay", "dx", "dy", "denom",
        "seg_cum0", "seg_len", "hx", "hy",
    )

    def __init__(self, graph: RoadGraph) -> None:
        edges = graph.edges()
        n_edges = len(edges)
        self.edges = edges
        self.slot_by_edge_id = {e.edge_id: slot for slot, e in enumerate(edges)}
        self.n_segs = np.fromiter(
            (len(e.geometry) - 1 for e in edges), dtype=np.int64, count=n_edges
        )
        self.row_offset = np.zeros(n_edges, dtype=np.int64)
        if n_edges > 1:
            np.cumsum(self.n_segs[:-1], out=self.row_offset[1:])
        self.length = np.fromiter(
            (e.geometry.length for e in edges), dtype=np.float64, count=n_edges
        )
        self.forward = np.fromiter(
            (e.forward_allowed for e in edges), dtype=bool, count=n_edges
        )
        self.backward = np.fromiter(
            (e.backward_allowed for e in edges), dtype=bool, count=n_edges
        )
        total = int(self.n_segs.sum())
        self.ax = np.empty(total)
        self.ay = np.empty(total)
        self.dx = np.empty(total)
        self.dy = np.empty(total)
        self.denom = np.empty(total)
        self.seg_cum0 = np.empty(total)
        self.seg_len = np.empty(total)
        self.hx = np.empty(total)
        self.hy = np.empty(total)
        for slot, edge in enumerate(edges):
            geometry = edge.geometry
            coords = geometry.coords
            lo = int(self.row_offset[slot])
            hi = lo + int(self.n_segs[slot])
            dx = np.diff(coords[:, 0])
            dy = np.diff(coords[:, 1])
            self.ax[lo:hi] = coords[:-1, 0]
            self.ay[lo:hi] = coords[:-1, 1]
            self.dx[lo:hi] = dx
            self.dy[lo:hi] = dy
            denom = dx * dx + dy * dy
            denom[denom == 0.0] = 1.0
            self.denom[lo:hi] = denom
            cumlen = geometry._cumlen  # same cache LineString.project reads
            self.seg_cum0[lo:hi] = cumlen[:-1]
            self.seg_len[lo:hi] = np.diff(cumlen)
            for k in range(hi - lo):
                norm = math.hypot(float(dx[k]), float(dy[k]))
                if norm == 0.0:
                    self.hx[lo + k] = 0.0
                    self.hy[lo + k] = 0.0
                else:
                    self.hx[lo + k] = float(dx[k]) / norm
                    self.hy[lo + k] = float(dy[k]) / norm


_EDGE_ARRAYS: "weakref.WeakKeyDictionary[RoadGraph, tuple[int, EdgeArrays]]" = (
    weakref.WeakKeyDictionary()
)


def edge_arrays_for(graph: RoadGraph) -> EdgeArrays:
    """The graph's :class:`EdgeArrays`, built once and cached per graph.

    The cache invalidates on edge-count change (graphs only ever grow),
    so a graph still under construction is safe to query.
    """
    cached = _EDGE_ARRAYS.get(graph)
    if cached is not None and cached[0] == graph.edge_count:
        return cached[1]
    arrays = EdgeArrays(graph)
    _EDGE_ARRAYS[graph] = (graph.edge_count, arrays)
    return arrays


def candidates_for_points(
    graph: RoadGraph,
    xys: list[Point],
    movements: list[Point | None],
    config: CandidateConfig | None = None,
) -> list[list[Candidate]]:
    """Scored candidates for a whole fix sequence, one best-first list per fix.

    ``movements`` holds each fix's local direction of travel (from
    neighbouring fixes); ``None`` or a zero vector disables the
    orientation component (e.g. for a stationary vehicle).

    The projection, both score terms and the radius refinement run over
    (fix, edge) pair columns with the same floating-point operations, in
    the same order, as projecting each fix onto each nearby edge's
    :class:`~repro.geo.geometry.LineString` one at a time (the per-fix
    reference in ``tests/oracles/matching.py``).  Edge id breaks score
    ties, so the ranking ``(-score, edge_id)`` is a total order and does
    not depend on the spatial index's iteration order.
    """
    config = config or CandidateConfig()
    n_points = len(xys)
    out: list[list[Candidate]] = [[] for _ in range(n_points)]
    if n_points == 0:
        return out
    arrays = edge_arrays_for(graph)
    per_point = graph.edges_near_many(xys, config.radius_m, exact=False)
    n_edges = np.fromiter((len(lst) for lst in per_point), dtype=np.int64, count=n_points)
    n_pairs = int(n_edges.sum())
    if n_pairs == 0:
        return out

    # -- pair expansion: one row per (fix, bbox-candidate edge) segment.
    pair_point = np.repeat(np.arange(n_points, dtype=np.int64), n_edges)
    pair_slot = np.fromiter(
        (arrays.slot_by_edge_id[e.edge_id] for lst in per_point for e in lst),
        dtype=np.int64,
        count=n_pairs,
    )
    counts = arrays.n_segs[pair_slot]
    row_start = arrays.row_offset[pair_slot]
    offsets = np.zeros(n_pairs, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    rows = np.repeat(row_start - offsets, counts) + np.arange(total, dtype=np.int64)

    px = np.fromiter((p[0] for p in xys), dtype=np.float64, count=n_points)
    py = np.fromiter((p[1] for p in xys), dtype=np.float64, count=n_points)
    pxr = np.repeat(px[pair_point], counts)
    pyr = np.repeat(py[pair_point], counts)

    # -- batched point-to-segment projection (LineString.project, columnar).
    axr = arrays.ax[rows]
    ayr = arrays.ay[rows]
    dxr = arrays.dx[rows]
    dyr = arrays.dy[rows]
    t = ((pxr - axr) * dxr + (pyr - ayr) * dyr) / arrays.denom[rows]
    np.clip(t, 0.0, 1.0, out=t)
    cx = axr + t * dxr
    cy = ayr + t * dyr
    d2 = (pxr - cx) ** 2 + (pyr - cy) ** 2

    # First-occurrence argmin per pair (np.argmin picks the first minimum;
    # the grouped equivalent is the first row matching the group minimum).
    min_d2 = np.minimum.reduceat(d2, offsets)
    flat_min = np.flatnonzero(d2 == np.repeat(min_d2, counts))
    grp = np.repeat(np.arange(n_pairs, dtype=np.int64), counts)[flat_min]
    __, first = np.unique(grp, return_index=True)
    best = flat_min[first]  # one row per pair, in pair order
    best_row = rows[best]
    t_best = t[best]
    arc = arrays.seg_cum0[best_row] + t_best * arrays.seg_len[best_row]
    dist = np.sqrt(d2[best])
    keep = dist <= config.radius_m  # edges_near's exact refinement

    # -- heading at the snapped arc (LineString.heading_at, columnar): the
    # searchsorted(side="right") index equals the count of cumulative
    # lengths <= arc, computed per pair with one grouped reduction.
    length_p = arrays.length[pair_slot]
    arc_c = np.minimum(length_p, np.maximum(0.0, arc))
    below = (arrays.seg_cum0[rows] <= np.repeat(arc_c, counts)).astype(np.int64)
    seg_i = np.add.reduceat(below, offsets) + (length_p <= arc_c) - 1
    np.clip(seg_i, 0, counts - 1, out=seg_i)
    head_row = row_start + seg_i
    hx = arrays.hx[head_row]
    hy = arrays.hy[head_row]

    # -- scores: distance term below, orientation term plus the one-way
    # penalty here (forward-only edges want a positive cosine, i.e.
    # movement along the u->v geometry; backward-only a negative one).
    mx = np.zeros(n_points)
    my = np.zeros(n_points)
    norm = np.ones(n_points)
    have_movement = np.zeros(n_points, dtype=bool)
    for j, movement in enumerate(movements):
        if movement is None:
            continue
        m_norm = math.hypot(movement[0], movement[1])
        if m_norm == 0.0:
            continue
        mx[j] = movement[0]
        my[j] = movement[1]
        norm[j] = m_norm
        have_movement[j] = True
    cosang = (mx[pair_point] * hx + my[pair_point] * hy) / norm[pair_point]
    fwd = arrays.forward[pair_slot]
    both_ways = fwd & arrays.backward[pair_slot]
    directed = np.where(fwd, cosang, -cosang)
    orientation = np.where(
        both_ways,
        config.mu_orientation * np.abs(cosang),
        np.where(
            directed < -0.2,
            config.mu_orientation * directed - config.oneway_penalty,
            config.mu_orientation * directed,
        ),
    )
    orientation = np.where(have_movement[pair_point], orientation, 0.0)

    # -- per-fix assembly, ranked by the same total-order key.  The
    # distance score's pow runs per kept pair in Python: NumPy's SIMD
    # pow kernel is 1 ulp off libm for ~5% of inputs, which would break
    # bitwise score parity with the per-fix reference (and costs little:
    # one pow per refined candidate).
    pt_start = np.zeros(n_points + 1, dtype=np.int64)
    np.cumsum(n_edges, out=pt_start[1:])
    snapped_x = cx[best]
    snapped_y = cy[best]
    for j in range(n_points):
        lo, hi = int(pt_start[j]), int(pt_start[j + 1])
        cands = []
        for k in range(lo, hi):
            if not keep[k]:
                continue
            d = float(dist[k])
            score = _distance_score(d, config) + float(orientation[k])
            cands.append(
                Candidate(
                    edge=per_point[j][k - lo],
                    arc_m=float(arc[k]),
                    snapped_xy=(float(snapped_x[k]), float(snapped_y[k])),
                    distance_m=d,
                    score=score,
                )
            )
        cands.sort(key=lambda c: (-c.score, c.edge.edge_id))
        out[j] = cands[: config.max_candidates]
    return out
