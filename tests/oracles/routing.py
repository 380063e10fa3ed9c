"""Routing-engine proxies for the reference gap-fill path."""

from __future__ import annotations


class PerPairEngine:
    """A prepared engine with its many-to-many kernel hidden.

    Exposes ``weight`` and ``shortest_path`` but no ``route_pairs``, so
    :attr:`repro.roadnet.routing.RouteBatch.supports_many` is false and
    :func:`repro.matching.gapfill.connect_matches` answers every gap
    with one point-to-point query of the wrapped engine — the per-gap
    loop the batched resolve must reproduce exactly.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.weight = engine.weight

    def shortest_path(self, source: int, target: int):
        return self._engine.shortest_path(source, target)
