"""Gap filling — the pgRouting Dijkstra step of the paper.

Event-based sampling leaves fixes far apart, so consecutive matched edges
are often not adjacent.  :func:`connect_matches` reconstructs the full
driven edge sequence: for every hop between distinct matched edges it
evaluates all legal exit/entry endpoint combinations, routes the gap with
Dijkstra, and picks the cheapest consistent traversal, honouring one-way
directions throughout.

With a many-to-many capable engine (a prepared
:class:`~repro.roadnet.ch.CHEngine`), every gap query of the trip is
collected up front and resolved through one
:class:`~repro.roadnet.routing.RouteBatch` call instead of one engine
query per endpoint combination; the per-gap decision loop then reads the
pre-resolved answers.  The batch answers are bitwise-identical to the
point-to-point queries, so the resulting edge sequence is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import maybe_inject
from repro.matching.types import MatchedRoute, edge_entries, edge_exits
from repro.obs import get_registry
from repro.roadnet.graph import RoadEdge, RoadGraph
from repro.roadnet.routing import RouteBatch, RouteCache, cached_shortest_path


@dataclass
class _Run:
    """Consecutive matched points on one edge, compressed."""

    edge_id: int
    first_arc: float
    last_arc: float


def _compress(route: MatchedRoute) -> list[_Run]:
    runs: list[_Run] = []
    for m in route.matched:
        if runs and runs[-1].edge_id == m.edge_id:
            runs[-1].last_arc = m.arc_m
        else:
            runs.append(_Run(edge_id=m.edge_id, first_arc=m.arc_m, last_arc=m.arc_m))
    return runs


def _legal_exits(edge: RoadEdge, entry_node: int | None) -> list[int]:
    """Endpoints the vehicle may leave ``edge`` through.

    If the entry endpoint is known the exit is the other one; otherwise
    one-way constraints decide (a forward-only edge is always exited at
    ``v``).
    """
    if entry_node is not None:
        return [edge.other(entry_node)]
    return edge_exits(edge)


def _legal_entries(edge: RoadEdge) -> list[int]:
    return edge_entries(edge)


def _arc_to_endpoint(edge: RoadEdge, arc: float, endpoint: int) -> float:
    return edge.length - arc if endpoint == edge.v else arc


def _collect_gap_pairs(
    graph: RoadGraph, runs: list[_Run]
) -> list[tuple[int, int]]:
    """Every ``(exit, entry)`` pair the gap loop *could* route.

    The loop restricts exits to the endpoint opposite the chain's entry
    node, but the chain state is only known while iterating — so the
    batch covers a superset.  It is still tight: a chain entry node is
    always a legal entry of ``e1``, so every exit the loop can pick is
    either in ``_legal_exits(e1, None)`` (chain restart) or the endpoint
    opposite a legal entry — both sets collapse to the same single node
    for a one-way edge, halving the pairs a ``{u, v}`` superset would
    route.  Direct hand-offs (``exit == entry``) never route and are
    skipped.  Duplicates are *not* collapsed here —
    :meth:`~repro.roadnet.routing.RouteBatch.resolve` dedupes anyway,
    and this enumeration runs for every trip, so it stays branch-light:
    exits/entries come straight from the one-way flags instead of the
    list-building ``_legal_*`` helpers the decision loop uses.
    """
    endpoints = _edge_endpoints(graph)
    pairs: list[tuple[int, int]] = []
    for k in range(len(runs) - 1):
        exits = endpoints[runs[k].edge_id][0]
        entries = endpoints[runs[k + 1].edge_id][1]
        for exit1 in exits:
            for entry2 in entries:
                if exit1 != entry2:
                    pairs.append((exit1, entry2))
    return pairs


def _edge_endpoints(
    graph: RoadGraph,
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-edge (batchable exits, legal entries), memoised on the graph.

    Derived once from the immutable one-way flags; gap-pair collection
    runs for every trip, so this turns it into pure dict reads.
    """
    memo = getattr(graph, "_gapfill_endpoints", None)
    if memo is None:
        memo = {}
        for edge in graph.edges():
            if edge.forward_allowed:
                exits = (edge.v, edge.u) if edge.backward_allowed else (edge.v,)
            else:
                exits = (edge.u,) if edge.backward_allowed else (edge.v,)
            if edge.forward_allowed:
                entries = (edge.u, edge.v) if edge.backward_allowed else (edge.u,)
            else:
                entries = (edge.v,) if edge.backward_allowed else (edge.u,)
            memo[edge.edge_id] = (exits, entries)
        graph._gapfill_endpoints = memo
    return memo


def connect_matches(
    graph: RoadGraph,
    route: MatchedRoute,
    max_cost_m: float = 2_000.0,
    route_cache: RouteCache | None = None,
    engine=None,
) -> MatchedRoute:
    """Fill the matched route's edge sequence in place and return it.

    ``route_cache`` memoises the shortest-path sub-queries; it never
    changes the resulting edge sequence (see :func:`cached_shortest_path`).
    ``engine`` selects what answers cache misses — the default flat
    Dijkstra or a prepared :class:`~repro.roadnet.ch.CHEngine`; both
    return optimal costs, so gap decisions are identical up to
    equal-cost path ties.

    An engine with a many-to-many kernel resolves all the trip's gap
    queries through one :class:`~repro.roadnet.routing.RouteBatch` call;
    the flat engine keeps the per-gap loop (batching a superset of pairs
    through it would route *more*, not less).  Fault-injection parity is
    preserved: the decision loop calls :func:`~repro.faults.maybe_inject`
    for exactly the pairs the sequential loop would query, in the same
    order, before consulting the pre-resolved batch.
    """
    registry = get_registry()
    registry.counter("matching.gapfill_calls").inc()
    runs = _compress(route)
    if not runs:
        route.edge_sequence = []
        return route
    if len(runs) == 1:
        edge = graph.edge(runs[0].edge_id)
        forward = runs[0].last_arc >= runs[0].first_arc
        from_node = edge.u if forward else edge.v
        if not edge.allows(from_node):
            from_node = edge.other(from_node)
        route.edge_sequence = [(edge.edge_id, from_node)]
        return route

    resolved = None
    batch = RouteBatch(graph, weight="length", cache=route_cache, engine=engine)
    if batch.supports_many:
        gap_pairs = _collect_gap_pairs(graph, runs)
        if len(gap_pairs) >= 2:
            resolved = batch.resolve(gap_pairs)
            # routing.* namespace: engine-dependent counters are
            # excluded from serial/parallel comparable metrics.
            registry.counter("routing.gapfill_batched").inc()

    if resolved is not None:
        batch_answers = resolved

        def query(exit1: int, entry2: int):
            # Same injection site, key, and order as the sequential
            # loop's cached_shortest_path would hit.
            maybe_inject("routing", (exit1, entry2), require_guard=True)
            return batch_answers[(exit1, entry2)]
    else:

        def query(exit1: int, entry2: int):
            return cached_shortest_path(  # batch-ok: per-gap loop of the flat engine
                graph, exit1, entry2, weight="length",
                cache=route_cache, engine=engine,
            )

    sequence: list[tuple[int, int]] = []
    gaps = 0
    entry_node: int | None = None
    for k in range(len(runs) - 1):
        e1 = graph.edge(runs[k].edge_id)
        e2 = graph.edge(runs[k + 1].edge_id)
        best: tuple[float, int, int, tuple[int, ...], tuple[int, ...]] | None = None
        for exit1 in _legal_exits(e1, entry_node):
            d1 = _arc_to_endpoint(e1, runs[k].last_arc, exit1)
            for entry2 in _legal_entries(e2):
                d2 = runs[k + 1].first_arc if entry2 == e2.u else (
                    e2.length - runs[k + 1].first_arc
                )
                if exit1 == entry2:
                    cost = d1 + d2
                    candidate = (cost, exit1, entry2, (), ())
                else:
                    path = query(exit1, entry2)
                    if not path.found or path.cost > max_cost_m:
                        continue
                    candidate = (d1 + path.cost + d2, exit1, entry2, path.nodes, path.edges)
                if best is None or candidate[0] < best[0]:
                    best = candidate
        if best is None:
            # Unroutable gap: keep the traversal of e1 with any legal
            # direction and restart the chain.
            from_node = entry_node if entry_node is not None else _legal_entries(e1)[0]
            sequence.append((e1.edge_id, from_node))
            entry_node = None
            gaps += 1
            registry.counter("matching.unroutable_gaps").inc()
            continue
        __, exit1, entry2, path_nodes, path_edges = best
        sequence.append((e1.edge_id, e1.other(exit1)))
        if path_edges:
            gaps += 1
            for node, edge_id in zip(path_nodes[:-1], path_edges):
                # Skip a self-transition back onto e2 (shouldn't happen, but
                # keeps the sequence free of duplicates if Dijkstra routes
                # through e2's own endpoints).
                sequence.append((edge_id, node))
        entry_node = entry2
    last = graph.edge(runs[-1].edge_id)
    from_node = entry_node if entry_node is not None else _legal_entries(last)[0]
    sequence.append((last.edge_id, from_node))
    route.edge_sequence = _dedupe(sequence)
    route.gaps_filled = gaps
    registry.counter("matching.gaps_filled").inc(gaps)
    return route


def _dedupe(sequence: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop exact consecutive duplicates (same edge, same direction)."""
    out: list[tuple[int, int]] = []
    for item in sequence:
        if out and out[-1] == item:
            continue
        out.append(item)
    return out
