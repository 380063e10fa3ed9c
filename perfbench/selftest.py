#!/usr/bin/env python3
"""Self-test of the traced run's wrappers.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload's first fleet once untraced and once traced and
asserts that

* each wrapper fires on the workload that should exercise it (and stays
  silent where the layer does no work), and every installed wrapper
  fired somewhere — so a rename or a moved binding in the program fails
  here instead of reporting zeros;
* ``traces.simulate_s`` is 0 in serve-live's timed part, and its
  micro-batch stamps count exactly the service's ``stream.batches``;
* the traced fingerprint equals the untraced one and the workload's
  reference, so wrapping changes no output;
* per-layer self times plus the unattributed row sum to the traced wall
  time, and none is negative.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS, Bench  # noqa: E402

SEED = 2012

failures: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def traced_pair(bench: Bench, name: str, check, make_args) -> dict:
    """Untraced then traced run; checks both and returns the traced record.

    ``make_args()`` is called before each run, so each starts from fresh
    output (and store or checkpoint) directories.
    """
    plain = bench.repro(make_args())
    traced = bench.repro(make_args(), trace=True)
    expect(f"{name}: untraced run passes its check", check(plain) is None)
    expect(f"{name}: traced run passes its check", check(traced) is None)
    expect(f"{name}: traced fingerprint == untraced",
           traced.get("fingerprint") == plain.get("fingerprint") is not None)
    ledger = traced.get("ledger", {})
    expect(f"{name}: layers + unattributed sum to wall",
           math.isclose(sum(ledger.values()), traced.get("wall_s", -1), rel_tol=1e-9))
    expect(f"{name}: no negative layer time", all(v >= 0 for v in ledger.values()))
    return traced


def main() -> int:
    fired: dict[str, int] = {}
    layers: dict[str, dict] = {}
    stamped: dict[str, int] = {}
    for name, cls in WORKLOADS.items():
        bench = Bench(name, SEED)
        bench.work.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(bench)
            workload.setup_round()
            workload.prepare()
            runs = {name: (lambda record, w=workload: w.check(record, 0),
                           lambda w=workload: w.timed_args(0))}
            if name == "study-warm":
                # The fill run is set-up in the benchmark; trace it here
                # so the store's write path is covered too.  It is a cold
                # run, so it must match the store-off reference.
                def fill_args(workload=workload, bench=bench):
                    return [*workload.study_args(0, str(bench.fresh("fill"))),
                            "--store-dir", str(bench.fresh("fill-store"))]

                def fill_check(record, workload=workload):
                    return workload.check({**record, "store_misses": 0}, 0)

                runs["study-warm fill"] = (fill_check, fill_args)
            for label, (check, make_args) in runs.items():
                traced = traced_pair(bench, label, check, make_args)
                layers[label] = traced.get("layers", {})
                stamped[label] = len(traced.get("batch_ms", []))
                for wrapper, calls in traced.get("wrapper_calls", {}).items():
                    fired[wrapper] = fired.get(wrapper, 0) + calls
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)

    cold, warm = layers["study-cold"], layers["study-warm"]
    fill, serve = layers["study-warm fill"], layers["serve-live"]
    for metric in ("traces.simulate_s", "traces.points", "roadnet.build_city_s",
                   "roadnet.route_calls.simulate", "roadnet.route_calls.match",
                   "cleaning.clean_s", "od.extract_s", "od.transitions",
                   "matching.match_s", "matching.candidate_calls", "matching.gapfill_s",
                   "features.features_s", "stats.mixed_model_s", "obs.journal_events",
                   "experiments.study_self_s"):
        expect(f"study-cold: {metric} > 0", cold.get(metric, 0) > 0)
    for metric in ("matching.feed_calls", "store.get_calls", "store.put_calls",
                   "stream.self_s", "stream.batches", "stream.checkpoints"):
        expect(f"study-cold: {metric} == 0", cold.get(metric, 1) == 0)
    for metric in ("store.put_calls", "store.bytes_written", "store.get_calls"):
        expect(f"study-warm fill: {metric} > 0", fill.get(metric, 0) > 0)
    expect("study-warm fill: store.hit_ratio == 0", fill.get("store.hit_ratio", 1) == 0)
    for metric in ("store.get_calls", "store.get_s", "store.decode_s", "store.plan_s",
                   "traces.simulate_s"):
        expect(f"study-warm: {metric} > 0", warm.get(metric, 0) > 0)
    expect("study-warm: store.hit_ratio == 1", warm.get("store.hit_ratio") == 1)
    expect("study-warm: store.put_calls == 0", warm.get("store.put_calls", 1) == 0)
    for metric in ("matching.feed_calls", "matching.feed_s", "matching.candidate_calls",
                   "matching.match_s", "stream.self_s", "stream.batches",
                   "stream.checkpoints", "stream.checkpoint_s", "stream.checkpoint_bytes",
                   "store.put_calls", "roadnet.build_city_s", "cleaning.clean_s",
                   "od.extract_s", "obs.journal_events"):
        expect(f"serve-live: {metric} > 0", serve.get(metric, 0) > 0)
    expect("serve-live: traces.simulate_s == 0", serve.get("traces.simulate_s", 1) == 0)
    expect("serve-live: store.get_calls == 0", serve.get("store.get_calls", 1) == 0)
    # One stamp per full micro-batch: the stamps follow the service's batch size.
    expect("serve-live: stamped batches == stream.batches",
           stamped["serve-live"] == serve.get("stream.batches", -1))
    silent = sorted(label for label, calls in fired.items() if calls == 0)
    expect(f"every wrapper fired somewhere{': silent ' + ', '.join(silent) if silent else ''}",
           bool(fired) and not silent)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
