#!/usr/bin/env python3
"""End-to-end benchmark of the taxi-trace pipeline (``repro study`` / ``repro serve``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {study-cold,study-warm,serve-live} \\
        --seed N --seconds S --trace {0,1}

Each run builds its inputs from ``--seed`` (the program's simulation
seeds derive from it), sets up ``SETUP_ROUNDS`` times, then runs the
timed command back to back in fresh interpreters, cycling through the
workload's fleets, until ``--seconds`` have passed (at least
``MIN_REPS`` times per fleet), checks every output, and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s``, each fleet's
  median over its timed repetitions, summed over the fleets;
  ``peak_rss_mb``, the largest fleet's median; and ``setup_s``, the
  median of the set-up rounds.
* ``--trace 1`` runs the same loop, then ``TRACED_REPS`` repetitions of
  the first fleet with every layer wrapped (``perfbench/tracer.py``) and
  reports the ledger of the median one, plus ``trace_overhead`` = its
  wall / the fleet's untraced median wall
  and the 50th and 95th percentile micro-batch latency of the untraced
  repetitions.  A line ``ledger {...}`` before the result carries the
  per-layer self times for ``perfbench/report.py``.

Every time reported is in calibrated seconds: raw seconds scaled by a
speed probe that ticks inside each timed child (``perfbench/calibrate.py``),
which cancels most of a shared machine's drifting speed.  A
``diagnostics {...}`` line carries the raw figures and rows/s.

``attempted`` counts units (trips ingested + transitions matched) over
the timed repetitions; ``failed`` counts units dropped by the program
(quarantine records of a non-advisory kind) plus every unit of a
repetition that exited non-zero, raised, or whose artefact fingerprint
differs from the reference.  The advisory ``non_monotonic_ids`` records
are not failures: their trips are repaired and kept.

All scratch files live in ``.perfbench-work/`` inside the checkout and
are removed at the end.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated and its median reported, so one slow round (a page
#: cache miss, a noisy neighbour) does not move ``setup_s``.
SETUP_ROUNDS = 3
#: Fewest timed repetitions per fleet and run, however long each takes:
#: with two, serve-live's wall_s spread 9.8% over ten seeds.
MIN_REPS = 3
#: Traced repetitions of the first fleet; the median one's ledger is reported.
TRACED_REPS = 3
#: Every child must end before the run's own 180 s limit.
RUN_DEADLINE_S = 170.0
#: ``repro serve`` micro-batch size (its default) and checkpoint cadence.
#: Every 10th batch checkpoints, so checkpoint batches are ~9% of all
#: batches and ``stream.batch_p95_ms`` sits among them, not on the edge
#: between checkpoint and plain batches, where it would flip between runs.
BATCH_SIZE = 64
CHECKPOINT_EVERY = 10


class Failure(RuntimeError):
    """A set-up or reference step failed: the run cannot be measured."""


class Bench:
    """Scratch space, child processes and the run deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.work = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # Each child draws its own hash seed.  A fixed one made repetitions
        # no steadier (interleaved A/B, 65 serve replays each) and would turn
        # any hash-layout effect into a constant bias between commits.
        self.env.pop("PYTHONHASHSEED", None)
        # The program is single-process; a BLAS thread pool on a 2-core
        # box would only add scheduling noise.
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.env.pop("REPRO_STORE_DIR", None)
        self._records = 0

    def path(self, name: str) -> Path:
        return self.work / name

    def fresh(self, name: str) -> Path:
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _run(self, argv: list[str]) -> tuple[float, int]:
        """Run a child to completion; (seconds, exit code).

        The child's stderr goes to a file: ``repro`` logs a warning per
        quarantined unit, and a terminal would make that I/O part of the
        timing.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failure("run deadline passed")
        with open(self.path("stderr.log"), "a") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            # A blocking wait4 returns the moment the child ends; the
            # polling wait behind subprocess timeouts rounds up to 50 ms.
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                __, status, __ = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise Failure(f"{argv} ran past the run deadline")
        return seconds, proc.returncode

    def setup_step(self, argv: list[str]) -> float:
        """A timed set-up step: a whole process, interpreter start included."""
        seconds, rc = self._run([sys.executable, *argv])
        if rc != 0:
            raise Failure(f"set-up step {argv} exited {rc}; see {self.path('stderr.log')}")
        return seconds

    def repro(self, args: list[str], trace: bool = False) -> dict:
        """Run one ``repro`` command under ``perfbench/child.py``; its record."""
        self._records += 1
        record_path = self.path(f"record-{self._records}.json")
        argv = [sys.executable, str(HERE / "child.py"), "--record", str(record_path)]
        if trace:
            argv.append("--trace")
        __, rc = self._run([*argv, "--", *args])
        if rc != 0 or not record_path.exists():
            return {"rc": rc or 1, "error": f"child exited {rc}"}
        return json.loads(record_path.read_text())


# -- workloads -----------------------------------------------------------
#
# Every workload is a closed loop: one client, each command started only
# after the previous one ended, no worker pool.  ``--workers`` is not
# measured: on a 2-core box a 2-worker study spread 22% between runs.
#
# A workload runs ``fleets`` inputs, each simulated from its own program
# seed (``--seed * fleets + j``; the studies share study-cold's seeds),
# and repetitions cycle through them.  The seed draws each taxi's
# activity, so one 7-taxi fleet's size, and with it the work of a study,
# moves by 8.3% (interquartile range over seeds 1-10; the work per route
# point moves by 0.4%).  Four 5-day fleets per run average that to about
# half, for the same simulated days as the 20-day study of the ROADMAP
# ledger.


class StudyCold:
    """``repro study`` with the store off: the default command.

    The figure of merit of the pipeline.  ``traces`` (the simulator) does
    most of the work, cleaning + od about a fifth, matching under 2%;
    ``store`` and ``stream`` do nothing.  It is the control run for
    matching, store and stream changes, which must leave it unchanged.
    ``wall_s`` is the sum over the four fleets of each fleet's median.
    Set-up is starting an interpreter and importing the CLI — the part
    of the command that ``wall_s`` leaves out — so import-time work shows.
    Every repetition must reproduce its fleet's first run.
    """

    days = 5
    fleets = 4

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.references: dict[int, dict] = {}

    def seed(self, fleet: int) -> int:
        return self.bench.seed * StudyCold.fleets + fleet

    def study_args(self, fleet: int, out: str) -> list[str]:
        return ["study", "--days", str(self.days), "--seed", str(self.seed(fleet)),
                "--out", out]

    def setup_round(self) -> float:
        return self.bench.setup_step(["-c", "import repro.cli"])

    def prepare(self) -> None:
        """References: each fleet's first timed repetition (see check)."""

    def timed_args(self, fleet: int) -> list[str]:
        self.bench.fresh("out")
        return self.study_args(fleet, "out")

    def check(self, record: dict, fleet: int) -> str | None:
        if fleet not in self.references:
            self.references[fleet] = record
            return None
        return _same_fingerprint(record, self.references[fleet], "the fleet's first run")


class StudyWarm(StudyCold):
    """Study-cold's first two fleets against shard stores filled in set-up.

    A set-up round is one cold ``--store-dir`` run per fleet into an empty
    store (the store writes); the timed run reads and decodes every stage
    artefact.  Two fleets, not four, keep its set-up within the run time
    budget.  The warm run still simulates, because the store keys chain
    the simulated input, so caching the simulated fleet would cut
    ``wall_s`` here and leave study-cold unchanged.  The warm fingerprint
    must equal a store-off cold run's, and a warm run must not miss the
    store.
    """

    fleets = 2

    def setup_round(self) -> float:
        total = 0.0
        for fleet in range(self.fleets):
            store = self.bench.fresh(f"store-{fleet}")
            self.bench.fresh("fill")
            total += self.bench.setup_step(
                ["-m", "repro", "--quiet", *self.study_args(fleet, "fill"),
                 "--store-dir", str(store)]
            )
        return total

    def prepare(self) -> None:
        for fleet in range(self.fleets):
            self.bench.fresh("cold")
            cold = self.bench.repro(self.study_args(fleet, "cold"))
            if cold.get("fingerprint") is None:
                raise Failure(f"store-off reference study failed: {cold.get('error')}")
            self.references[fleet] = cold

    def timed_args(self, fleet: int) -> list[str]:
        self.bench.fresh("out")
        return [*self.study_args(fleet, "out"), "--store-dir", f"store-{fleet}"]

    def check(self, record: dict, fleet: int) -> str | None:
        if record.get("store_misses"):
            return f"warm run missed the store {record['store_misses']} times"
        return _same_fingerprint(record, self.references[fleet], "the store-off study")


class ServeLive:
    """``repro serve --mode replay --live-match`` with periodic checkpoints.

    Each fleet's input is simulated in set-up (so ``traces`` does no timed
    work) and cut to its first ``rows`` data rows; with a fixed row count
    the Python work moves by 1.8% between seeds (interquartile range of
    calls over seeds 1-10), but the checkpoints, 15% of the time at 4,500
    rows, grow with how much state the replay holds open (the bytes
    written per replay had an interquartile range of 39% of the median
    over 17 fleets).  So four short fleets are averaged: with two fleets of
    4,500 rows, ``wall_s`` spread 11% over ten seeds.  ``matching``
    dominates: the live matcher looks up candidates once per point.
    Checkpoints re-serialise the whole service state, so their cost grows
    with the run and shows in ``stream.batch_p95_ms``.  Each repetition
    starts from an empty checkpoint directory: with a leftover one,
    ``repro serve`` resumes and skips every row already ingested.  The
    fingerprint must equal that of ``repro study --input`` on the same CSV
    (the stream == batch contract), computed once per run.  A short input
    keeps several repetitions in a run and the checkpoints, whose total
    cost grows with the square of the run length, below the matcher's
    share.
    """

    #: Simulated days; at least ~5,600 rows for every seed tried.
    days = 6
    rows = 3000
    fleets = 4

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.references: dict[int, dict] = {}
        self.rounds = 0

    def seed(self, fleet: int) -> int:
        return self.bench.seed * self.fleets + fleet

    def csv(self, fleet: int, k: int = 0) -> Path:
        return self.bench.path(f"points-{fleet}-{k}.csv")

    def setup_round(self) -> float:
        """Simulate and cut every fleet's CSV; round ``k`` writes copy ``k``."""
        k = self.rounds
        self.rounds += 1
        t0 = time.perf_counter()
        for fleet in range(self.fleets):
            target = self.csv(fleet, k)
            self.bench.setup_step(
                ["-m", "repro", "--quiet", "simulate", "--days", str(self.days),
                 "--seed", str(self.seed(fleet)), "--points", str(target)]
            )
            with target.open() as f:
                lines = f.readlines()
            if len(lines) <= self.rows:
                raise Failure(f"only {len(lines) - 1} rows simulated; need {self.rows}")
            with target.open("w") as f:
                f.writelines(lines[:self.rows + 1])
        return time.perf_counter() - t0

    def prepare(self) -> None:
        for fleet in range(self.fleets):
            for k in range(1, self.rounds):
                if not filecmp.cmp(self.csv(fleet), self.csv(fleet, k), shallow=False):
                    raise Failure("repro simulate wrote different CSVs for one seed")
                self.csv(fleet, k).unlink()
            self.bench.fresh("batch")
            batch = self.bench.repro(
                ["study", "--input", self.csv(fleet).name, "--days", str(self.days),
                 "--seed", str(self.seed(fleet)), "--out", "batch"]
            )
            if batch.get("fingerprint") is None:
                raise Failure(f"repro study --input reference failed: {batch.get('error')}")
            self.references[fleet] = batch

    def timed_args(self, fleet: int) -> list[str]:
        self.bench.fresh("out")
        self.bench.fresh("ckpt")
        return ["serve", "--input", self.csv(fleet).name, "--mode", "replay",
                "--live-match", "--days", str(self.days), "--seed", str(self.seed(fleet)),
                "--out", "out", "--batch-size", str(BATCH_SIZE),
                "--checkpoint-every", str(CHECKPOINT_EVERY), "--checkpoint-dir", "ckpt"]

    def check(self, record: dict, fleet: int) -> str | None:
        return _same_fingerprint(record, self.references[fleet], "repro study --input")


WORKLOADS = {"study-cold": StudyCold, "study-warm": StudyWarm, "serve-live": ServeLive}


def _same_fingerprint(record: dict, reference: dict, what: str) -> str | None:
    if record.get("fingerprint") == reference.get("fingerprint"):
        return None
    parts = record.get("fingerprint_parts", {})
    ref_parts = reference.get("fingerprint_parts", {})
    diverged = sorted(k for k in ref_parts if parts.get(k) != ref_parts[k])
    return f"artefacts differ from {what}: {', '.join(diverged) or 'all'}"


# -- measurement ---------------------------------------------------------


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload_name, seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(WORKLOADS[workload_name](bench), bench, seconds, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        parent = bench.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def _measure(workload, bench: Bench, seconds: float, trace: bool) -> dict:
    setup = [workload.setup_round() for __ in range(SETUP_ROUNDS)]
    workload.prepare()

    fleets = workload.fleets
    runs: list[list[dict]] = [[] for __ in range(fleets)]
    problems: list[str] = []
    attempted = failed = 0
    started = time.monotonic()
    rep = 0
    while (rep < MIN_REPS * fleets or rep % fleets
           or time.monotonic() - started < seconds):
        fleet = rep % fleets
        record = bench.repro(workload.timed_args(fleet))
        rep += 1
        problem = _judge(workload, record, fleet)
        if problem is None:
            runs[fleet].append(record)
            attempted += record["units"]
            failed += record["dropped"]
            continue
        problems.append(problem)
        # A failed repetition loses every unit its fleet holds.
        units = workload.references.get(fleet, {}).get("units") or 1
        attempted += units
        failed += units
    if not all(runs):
        raise Failure(f"a fleet has no passing repetition: {problems[0]}")

    good = [r for fleet_runs in runs for r in fleet_runs]
    wall = sum(statistics.median(r["wall_s"] * r["scale"] for r in fleet_runs)
               for fleet_runs in runs)
    # Set-up runs outside the probe; it is scaled by the machine speed the
    # timed repetitions saw.
    scale = statistics.mean(r["scale"] for r in good)
    out: dict = {"correct": not problems, "attempted": attempted, "failed": failed}
    raw_wall = sum(statistics.median(r["wall_s"] for r in fleet_runs) for fleet_runs in runs)
    diagnostics = {
        "reps": rep, "problems": problems, "raw_wall_s": raw_wall,
        "raw_walls": [r["wall_s"] for r in good], "scales": [r["scale"] for r in good],
        "raw_setup_s": setup, "units": [fleet_runs[0]["units"] for fleet_runs in runs],
    }
    rows = sum(fleet_runs[0].get("rows", 0) for fleet_runs in runs)
    if rows:
        diagnostics["rows_per_s"] = rows / raw_wall

    if not trace:
        out["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            # The workload needs as much memory as its largest fleet.
            "peak_rss_mb": {"value": max(statistics.median(r["peak_rss_mb"] for r in fleet_runs)
                                         for fleet_runs in runs), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
        }
        print("diagnostics " + json.dumps(diagnostics))
        return out

    # Micro-batch latency over every untraced repetition, each batch in its
    # repetition's calibrated milliseconds.  A study has no batches: 0.
    batches = [ms * r["scale"] for r in good for ms in r["batch_ms"]]
    p50 = _percentile(batches, 50) if batches else 0.0
    p95 = _percentile(batches, 95) if batches else 0.0
    diagnostics["batches"] = len(batches)

    traced_runs = []
    for __ in range(TRACED_REPS):
        traced = bench.repro(workload.timed_args(0), trace=True)
        problem = _judge(workload, traced, 0)
        if problem is not None:
            out["correct"] = False
            print("diagnostics " + json.dumps(diagnostics))
            print(f"perfbench: traced run: {problem}", file=sys.stderr)
            out["metrics"] = {}
            return out
        traced_runs.append(traced)
    print("diagnostics " + json.dumps(diagnostics))
    # The ledger of the traced repetition with the median calibrated wall.
    traced_runs.sort(key=lambda r: r["wall_s"] * r["scale"])
    traced = traced_runs[len(traced_runs) // 2]
    traced_scale = traced["scale"]
    metrics = {}
    for name, value in traced["layers"].items():
        unit = tracer.unit(name)
        metrics[name] = {"value": value * traced_scale if unit == "s" else value,
                         "unit": unit}
    fleet0 = statistics.median(r["wall_s"] * r["scale"] for r in runs[0])
    metrics["trace_overhead"] = {"value": traced["wall_s"] * traced_scale / fleet0,
                                 "unit": tracer.unit("trace_overhead")}
    metrics["stream.batch_p50_ms"] = {"value": p50, "unit": "ms"}
    metrics["stream.batch_p95_ms"] = {"value": p95, "unit": "ms"}
    out["metrics"] = metrics
    ledger = {layer: seconds * traced_scale for layer, seconds in traced["ledger"].items()}
    print("ledger " + json.dumps({"wall_s": traced["wall_s"] * traced_scale,
                                  "layers": ledger}))
    return out


def _judge(workload, record: dict, fleet: int) -> str | None:
    if record.get("error") or record.get("rc"):
        return f"run failed: {record.get('error') or 'exit ' + str(record.get('rc'))}"
    return workload.check(record, fleet)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # Terminated from outside: unwind, so the running child is killed and
    # waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
