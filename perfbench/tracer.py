"""Per-layer ledger for the traced benchmark run.

The traced run times each layer from outside: :func:`install` replaces a
layer's entry points with wrappers *at the binding its caller looks up*
(a class attribute for methods, the importing module's global for
functions), so nothing inside ``src/`` changes.  A rename in the program
leaves a wrapper with nothing to wrap and :func:`install` raises; a
binding that moves so the wrapper never fires is caught by
``perfbench/selftest.py``.

Time accounting.  Every wrapped call opens a frame ``(layer, metric)``.
A frame's *self time* is its duration minus the time spent in nested
frames of **other** layers; nested frames of the same layer stay inside
it.  So ``matching.feed_s`` includes the candidate lookups it makes
(``matching.candidates_s`` is a part of it), while ``traces.simulate_s``
excludes the router calls it makes (those are ``roadnet.route_s.*``).
Per layer, only the outermost frame of each same-layer chain is summed,
so the layer totals never double count and, together with the
unattributed remainder, add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import os
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "roadnet", "traces", "cleaning", "od", "matching", "features", "stats",
    "store", "stream", "obs", "experiments",
)

#: Router calls are labelled by the layer that asked for the route: the
#: simulator's noisy routing vs the matcher's gap fill.
ROUTE_LABELS = {"traces": "simulate", "matching": "match"}


class _Frame:
    __slots__ = ("layer", "metric", "t0", "foreign", "chain", "own")

    def __init__(self, layer, metric, parent):
        self.layer = layer
        self.metric = metric
        self.foreign = 0.0
        if parent is not None and parent.layer == layer:
            self.own = metric not in parent.chain
            self.chain = parent.chain | {metric}
        else:
            self.own = True
            self.chain = frozenset((metric,))
        self.t0 = perf_counter()


class Ledger:
    """Calls, self time and counts per metric; self time per layer."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Calls per installed wrapper ("module.Class.name"), so the
        #: self-test can prove every wrapper fired somewhere.
        self.wrapper_calls: dict[str, int] = {}

    def enter(self, layer: str, metric: str) -> _Frame:
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(layer, metric, parent)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = perf_counter() - frame.t0
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("traced frames closed out of order")
        own_time = duration - frame.foreign
        self.calls[frame.metric] += 1
        if frame.own:
            self.self_s[frame.metric] += own_time
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent.layer != frame.layer:
            self.layer_s[frame.layer] += own_time
            if parent is not None:
                parent.foreign += duration
        else:
            parent.foreign += frame.foreign

    def enclosing_layer(self) -> str | None:
        return self.stack[-1].layer if self.stack else None


def _wrap(ledger: Ledger, owner, name: str, layer: str, metric,
          after=None, before=None) -> None:
    """Replace ``owner.name`` with a timing wrapper.

    ``metric`` is a string or a callable returning one at call time
    (router calls are labelled by their caller).  ``before(args, kwargs)``
    runs untimed ahead of the call and its value is handed to
    ``after(ledger, args, kwargs, result, before_value)``.
    """
    original = getattr(owner, name)  # AttributeError: the binding moved
    if isinstance(owner, types.ModuleType):
        label = f"{owner.__name__}.{name}"
    else:
        label = f"{owner.__module__}.{owner.__qualname__}.{name}"
    ledger.wrapper_calls[label] = 0

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        ledger.wrapper_calls[label] += 1
        prepared = before(args, kwargs) if before is not None else None
        frame = ledger.enter(layer, metric() if callable(metric) else metric)
        try:
            result = original(*args, **kwargs)
        finally:
            ledger.exit(frame)
        if after is not None:
            after(ledger, args, kwargs, result, prepared)
        return result

    setattr(owner, name, wrapper)


def _dir_bytes(path) -> int:
    total = 0
    with os.scandir(path) as entries:
        for entry in entries:
            if entry.is_file(follow_symlinks=False):
                total += entry.stat(follow_symlinks=False).st_size
    return total


def install(ledger: Ledger) -> None:
    """Wrap every measured layer's entry points (call once per process)."""
    import repro.experiments.study as study_mod
    import repro.matching.gapfill as gapfill_mod
    import repro.matching.incremental as incremental_mod
    import repro.store.planner as planner_mod
    import repro.stream.service as service_mod
    import repro.traces.simulator as simulator_mod
    from repro.cleaning.pipeline import CleaningPipeline
    from repro.experiments.study import OuluStudy
    from repro.matching.incremental import IncrementalMatcher
    from repro.obs.journal import FileJournal
    from repro.od.transitions import TransitionExtractor
    from repro.stats.mixed import RandomInterceptModel
    from repro.store.planner import StudyPlanner
    from repro.store.shards import ShardStore
    from repro.stream.service import StreamService
    from repro.traces.simulator import TaxiFleetSimulator

    def route_metric() -> str:
        label = ROUTE_LABELS.get(ledger.enclosing_layer(), "other")
        return f"roadnet.route.{label}"

    def count_points(ledger, args, kwargs, result, __):
        ledger.counts["traces.points"] += result[0].point_count

    def count_candidate_points(ledger, args, kwargs, result, __):
        ledger.counts["matching.candidate_points"] += len(result)

    def count_hit(ledger, args, kwargs, result, __):
        if result is not None:
            ledger.counts["store.hits"] += 1

    def put_target(args, kwargs):
        store, key = args[0], args[1]
        final = store._dir_for(key)
        return final, (final / "meta.json").exists()

    def count_put_bytes(ledger, args, kwargs, result, prepared):
        final, existed = prepared
        if existed or not (final / "meta.json").exists():
            return
        written = _dir_bytes(final)
        ledger.counts["store.bytes_written"] += written
        stage = kwargs.get("stage", args[2] if len(args) > 2 else "")
        if stage == "stream_checkpoint":
            ledger.counts["stream.checkpoint_bytes"] += written

    # roadnet: the city build (study and stream each import their own
    # binding) and the two routers, labelled by the layer that asked.
    for mod in (study_mod, service_mod):
        _wrap(ledger, mod, "build_synthetic_oulu", "roadnet", "roadnet.build_city")
    _wrap(ledger, simulator_mod, "dijkstra", "roadnet", route_metric)
    _wrap(ledger, gapfill_mod, "cached_shortest_path", "roadnet", route_metric)
    # traces
    _wrap(ledger, TaxiFleetSimulator, "simulate", "traces", "traces.simulate",
          after=count_points)
    # cleaning and od: the batch entry points and the per-unit ones the
    # stream fold calls.
    for name in ("run", "compute_units", "clean_trip_unit"):
        _wrap(ledger, CleaningPipeline, name, "cleaning", "cleaning.clean")
    for name in ("extract", "compute_units", "extract_segment"):
        _wrap(ledger, TransitionExtractor, name, "od", "od.extract")
    # matching
    for mod in (study_mod, service_mod):
        _wrap(ledger, mod, "match_task", "matching", "matching.match")
    _wrap(ledger, IncrementalMatcher, "feed", "matching", "matching.feed")
    _wrap(ledger, incremental_mod, "candidates_for_points", "matching",
          "matching.candidates", after=count_candidate_points)
    _wrap(ledger, incremental_mod, "connect_matches", "matching", "matching.gapfill")
    # features and stats
    for mod in (study_mod, service_mod):
        for name in ("transition_route_stats", "cell_feature_counts"):
            _wrap(ledger, mod, name, "features", "features.features")
    _wrap(ledger, RandomInterceptModel, "fit", "stats", "stats.mixed_model")
    # store
    _wrap(ledger, ShardStore, "get", "store", "store.get", after=count_hit)
    _wrap(ledger, ShardStore, "put", "store", "store.put",
          before=put_target, after=count_put_bytes)
    _wrap(ledger, StudyPlanner, "plan", "store", "store.plan")
    for stage in ("clean", "extract", "match", "features"):
        _wrap(ledger, planner_mod, f"decode_{stage}", "store", "store.decode")
        _wrap(ledger, planner_mod, f"encode_{stage}", "store", "store.encode")
    # stream: the service loop, and each checkpoint (state assembly,
    # canonical serialisation and the pointer flip; the shard write
    # inside it is store.put).
    _wrap(ledger, StreamService, "run", "stream", "stream.run")
    _wrap(ledger, StreamService, "_write_checkpoint", "stream", "stream.checkpoint")
    # obs: the run journal every study and serve writes.
    _wrap(ledger, FileJournal, "emit", "obs", "obs.journal")
    # experiments: the study orchestrator and its folds.
    _wrap(ledger, OuluStudy, "run", "experiments", "experiments.study")


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    base = name.removesuffix(".simulate").removesuffix(".match")
    if base.endswith("_s"):
        return "s"
    if base.endswith("_ms"):
        return "ms"
    if base.endswith(("_ratio", "_per_candidate_call", "trace_overhead")):
        return "ratio"
    if base.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, result, batches: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name.

    ``result`` is the run's ``StudyResult`` or ``StreamResult`` (the
    funnel and cleaning report carry the unit counts); ``batches`` is the
    number of micro-batch boundaries the benchmark stamped.
    """
    s, n, c = ledger.self_s, ledger.calls, ledger.counts
    report = result.clean.report
    transitions = sum(row.transitions_total for row in result.funnel)
    kept = sum(row.post_filtered for row in result.funnel)
    return {
        "traces.simulate_s": s["traces.simulate"],
        "traces.points": c["traces.points"],
        "roadnet.build_city_s": s["roadnet.build_city"],
        "roadnet.route_calls.simulate": n["roadnet.route.simulate"],
        "roadnet.route_calls.match": n["roadnet.route.match"],
        "roadnet.route_s.simulate": s["roadnet.route.simulate"],
        "roadnet.route_s.match": s["roadnet.route.match"],
        "cleaning.clean_s": s["cleaning.clean"],
        "cleaning.trips_in": report.trips_in,
        "cleaning.segments_out": report.segments_out,
        "cleaning.point_keep_ratio": _ratio(report.points_out, report.points_in),
        "od.extract_s": s["od.extract"],
        "od.transitions": transitions,
        "od.kept_ratio": _ratio(kept, transitions),
        "matching.match_s": s["matching.match"],
        "matching.feed_s": s["matching.feed"],
        "matching.feed_calls": n["matching.feed"],
        "matching.candidates_s": s["matching.candidates"],
        "matching.candidate_calls": n["matching.candidates"],
        "matching.points_per_candidate_call": _ratio(
            c["matching.candidate_points"], n["matching.candidates"]
        ),
        "matching.gapfill_s": s["matching.gapfill"],
        "store.get_calls": n["store.get"],
        "store.get_s": s["store.get"],
        "store.put_calls": n["store.put"],
        "store.put_s": s["store.put"],
        "store.bytes_written": c["store.bytes_written"],
        "store.decode_s": s["store.decode"],
        "store.plan_s": s["store.plan"],
        "store.hit_ratio": _ratio(c["store.hits"], n["store.get"]),
        "stream.self_s": s["stream.run"],
        "stream.batches": batches,
        "stream.checkpoints": n["stream.checkpoint"],
        "stream.checkpoint_s": s["stream.checkpoint"],
        "stream.checkpoint_bytes": c["stream.checkpoint_bytes"],
        "features.features_s": s["features.features"],
        "stats.mixed_model_s": s["stats.mixed_model"],
        "obs.journal_events": n["obs.journal"],
        "obs.journal_s": s["obs.journal"],
        "experiments.study_self_s": s["experiments.study"],
    }


def layer_rows(ledger: Ledger, wall_s: float) -> dict[str, float]:
    """Self seconds per layer plus the unattributed remainder of ``wall_s``."""
    rows = {layer: ledger.layer_s.get(layer, 0.0) for layer in LAYERS}
    rows["unattributed"] = wall_s - sum(rows.values())
    return rows
