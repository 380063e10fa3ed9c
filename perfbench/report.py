#!/usr/bin/env python3
"""Run the benchmark and print every metric and the per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--runs 5] [--seed 1] [--workload study-cold ...]

For each workload this makes ``--runs`` untraced runs (seeds ``--seed``,
``--seed + 1``, ...) and prints every end-to-end metric with its unit,
median, first and third quartile and sample count; then one traced run
(seed ``--seed``) and its ledger: self time per layer, its share of the
traced wall time, and the part of wall time no layer covers as its own
row, followed by every per-layer metric: self times with their share,
counts and ratios.  Every run measures for ``run_seconds`` of
``BENCHMARK.json``, as the benchmark's bounds assume.  Times are
calibrated seconds (see ``run.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; (final result, {tag: payload} of tagged lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    tagged = {}
    for line in lines[:-1]:
        tag, __, payload = line.partition(" ")
        tagged[tag] = json.loads(payload)
    return json.loads(lines[-1]), tagged


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_workload(workload: str, runs: int, seed: int, seconds: float) -> None:
    print(f"== {workload}")
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for k in range(runs):
        result, __ = _run(workload, seed + k, seconds, 0)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"correct={correct} attempted={attempted} failed={failed}")
    print(f"{'metric':<16}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, values in samples.items():
        q1, med, q3 = _quartiles(values)
        print(f"{name:<16}{units[name]:<6}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>4}")

    result, tagged = _run(workload, seed, seconds, 1)
    if "ledger" not in tagged:
        print(f"traced run (seed {seed}) failed its check: correct={result['correct']}")
        print()
        return
    ledger = tagged["ledger"]
    wall = ledger["wall_s"]
    print(f"traced run (seed {seed}): wall {wall:.3f} s, correct={result['correct']}")
    print(f"{'layer':<14}{'self_s':>10}{'share':>9}")
    for layer in (*LAYERS, "unattributed"):
        seconds_self = ledger["layers"][layer]
        print(f"{layer:<14}{seconds_self:>10.3f}{seconds_self / wall:>9.1%}")
    print(f"{'total':<14}{sum(ledger['layers'].values()):>10.3f}")
    print("layer metrics (seconds are self time; share of traced wall):")
    for name, metric in result["metrics"].items():
        share = f"{metric['value'] / wall:>9.1%}" if metric["unit"] == "s" else ""
        print(f"  {name:<38}{metric['value']:>14.4f} {metric['unit']:<6}{share}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in args.workload or list(WORKLOADS):
        report_workload(workload, args.runs, args.seed, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
