"""Run one ``repro`` CLI command in this fresh interpreter and record it.

Usage (from ``perfbench/run.py``; the checkout's ``src`` on PYTHONPATH)::

    python3 perfbench/child.py --record FILE [--trace] -- <repro args>

The command runs through ``repro.cli.main`` exactly as ``python -m repro``
would run it.  Imports happen before the clock starts, so ``wall_s`` is
the command itself; interpreter start and imports are in the workloads'
set-up time instead.  The record (JSON) holds:

* ``wall_s`` and ``peak_rss_mb`` — ``ru_maxrss`` of this process, read
  right after the command returns, so the benchmark's own bookkeeping
  below is not in it;
* ``scale`` — raw seconds to calibrated seconds, from the speed probe
  that ticks while the command runs (``perfbench/calibrate.py``);
* ``fingerprint`` — a digest of ``repro.stream.compare``'s artefact
  fingerprint of the command's result, plus the per-artefact digests so a
  mismatch names the artefact;
* ``units`` / ``dropped`` — units the run processed (trips + transitions)
  and units it lost (quarantine records whose kind is not advisory, the
  rule of ``Quarantine.dropped()``);
* ``batch_ms`` — for ``repro serve``, the latency of each micro-batch,
  stamped from outside as the row source yields row ``k * batch_size``,
  with the batch size of the service's own configuration;
* ``store_misses`` — shard-store misses (a warm run must have none);
* with ``--trace``, the per-layer ledger of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter

import repro.cli as cli
import repro.stream.service as service_mod
from repro.experiments.study import OuluStudy
from repro.faults.errors import ADVISORY_KINDS
from repro.stream.compare import stream_fingerprint, study_fingerprint
from repro.stream.service import StreamService

import tracer
from calibrate import SpeedProbe


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class _Capture:
    """Keeps the result object the CLI handler computes and discards."""

    def __init__(self) -> None:
        self.result = None
        self.kind = None
        self.reader_errors: list = []
        self.stamps: list[float] = []
        self.batch_size = 0

    def install(self) -> None:
        capture = self

        def keep(kind, original):
            def run(*args, **kwargs):
                result = original(*args, **kwargs)
                capture.result, capture.kind = result, kind
                return result
            return run

        OuluStudy.run = keep("study", OuluStudy.run)
        run_stream = keep("stream", StreamService.run)

        def run_stream_and_keep_batch_size(service, *args, **kwargs):
            capture.batch_size = service.config.batch_size
            return run_stream(service, *args, **kwargs)

        StreamService.run = run_stream_and_keep_batch_size

        read_points_csv = cli.read_points_csv

        def read_and_keep_errors(*args, **kwargs):
            fleet = read_points_csv(*args, **kwargs)
            quarantine = kwargs.get("quarantine")
            if quarantine is not None:
                capture.reader_errors = list(quarantine.errors)
            return fleet

        cli.read_points_csv = read_and_keep_errors

        open_source = service_mod.open_source

        def stamped_source(*args, **kwargs):
            every = capture.batch_size
            for index, row in open_source(*args, **kwargs):
                if index % every == 0:
                    capture.stamps.append(perf_counter())
                yield index, row

        service_mod.open_source = stamped_source


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    capture = _Capture()
    capture.install()
    ledger = None
    if args.trace:
        ledger = tracer.Ledger()
        tracer.install(ledger)

    record: dict = {"command": command, "error": None}
    probe = SpeedProbe()
    probe.start()
    t0 = perf_counter()
    try:
        rc = cli.main(["--quiet", *command])
    except Exception:  # the run counts as failed; the record says why
        rc = 1
        record["error"] = traceback.format_exc()
    wall = perf_counter() - t0
    record["scale"] = probe.stop()
    record["ticks"] = len(probe.ticks)
    record["rc"] = rc
    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = capture.result
    if result is not None and rc == 0 and record["error"] is None:
        if capture.kind == "study":
            errors = capture.reader_errors + list(result.errors)
            fp = study_fingerprint(result, capture.reader_errors)
            units = len(result.fleet) + len(result.extraction.transitions)
        else:
            errors = list(result.errors)
            fp = stream_fingerprint(result)
            units = result.trips_seen + result.transitions_total
        record["fingerprint"] = _digest(json.dumps(fp, sort_keys=True))
        record["fingerprint_parts"] = {name: _digest(text) for name, text in fp.items()}
        record["units"] = units
        record["dropped"] = sum(1 for e in errors if e.kind not in ADVISORY_KINDS)
        record["store_misses"] = result.metrics.get("counters", {}).get("store.misses", 0)
        record["rows"] = getattr(result, "rows_ingested", 0)
        stamps = capture.stamps
        record["batch_ms"] = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        if ledger is not None:
            record["layers"] = tracer.layer_metrics(
                ledger, result, batches=len(record["batch_ms"])
            )
            record["ledger"] = tracer.layer_rows(ledger, wall)
            record["wrapper_calls"] = ledger.wrapper_calls
    with open(args.record, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
