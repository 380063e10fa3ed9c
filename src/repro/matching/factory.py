"""The one place a study-configured matcher is built.

The batch study, the pool workers and the streaming service all match
with the same matcher over the same gap-fill engine; building it here
keeps the three drivers from drifting apart.
"""

from __future__ import annotations

from repro.matching.hmm import HmmMatcher
from repro.matching.incremental import IncrementalMatcher
from repro.roadnet.graph import RoadGraph
from repro.roadnet.routing import RouteCache, make_routing_engine


def build_matcher(
    graph: RoadGraph,
    kind: str = "incremental",
    route_cache: RouteCache | None = None,
    routing_engine: str = "dijkstra",
    ch_artifact: str | None = None,
) -> IncrementalMatcher | HmmMatcher:
    """Build the ``kind`` matcher (``"incremental"`` or ``"hmm"``) over ``graph``.

    Gap filling goes through ``route_cache`` and the engine named by
    ``routing_engine``, resolved by
    :func:`~repro.roadnet.routing.make_routing_engine` (``"ch"`` loads
    ``ch_artifact`` when it exists instead of contracting again).
    """
    engine = make_routing_engine(
        graph, routing_engine, weight="length", ch_artifact=ch_artifact
    )
    matcher_cls = HmmMatcher if kind == "hmm" else IncrementalMatcher
    return matcher_cls(graph, route_cache=route_cache, routing_engine=engine)
