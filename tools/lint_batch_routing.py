"""Lint: no unmarked per-pair routing calls in matching/analysis.

The matching and analysis packages own the workloads with many routing
queries per unit of work (gap-fill endpoint combinations, gate OD
matrices, route-variant detours).  Their fast paths go through the
many-to-many planner — :class:`repro.roadnet.routing.RouteBatch` and the
``repro.roadnet.ch.matrix`` kernels — which share upward searches and
batch the cache round-trips.  A new call site of the point-to-point
:func:`repro.roadnet.routing.cached_shortest_path` in these packages is
almost always a perf regression sneaking in: one engine query and one
cache round-trip per pair inside a loop instead of one batched resolve.

Per-pair calls that are *intentional* (the flat-engine fallback a batch
degrades to, or a genuinely single query) carry a ``# batch-ok:
<reason>`` marker on the call line.  Everything else fails this check:

    python tools/lint_batch_routing.py

Run by the CI lint job next to ruff.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BATCHED_DIRS = (
    REPO / "src" / "repro" / "matching",
    REPO / "src" / "repro" / "analysis",
)

#: Call sites of the per-pair query helper.  Imports and docstring
#: references are not flagged — only an actual call puts the module on
#: the per-pair path.
CALL_RE = re.compile(r"\bcached_shortest_path\s*\(")
MARKER = "# batch-ok"

#: The matching package additionally must not grow unmarked plain
#: Dijkstra searches: HMM transition distances go through
#: ``RouteBatch.resolve_costs`` (one many-to-many batch per trip) and
#: gap fills through the route cache, while the per-candidate capped
#: Dijkstra decoder lives only as the test oracle.  The word boundary
#: keeps ``multi_target_dijkstra`` out of scope — ``_`` is a word
#: character, so only plain ``dijkstra(`` (or an attribute access ending
#: in it) matches.  Analysis code is exempt: its searches run under
#: custom per-edge weights no batch kernel serves.
DIJKSTRA_RE = re.compile(r"\bdijkstra\s*\(")
MATCHING_DIR = REPO / "src" / "repro" / "matching"


def find_offenders(
    *roots: Path, pattern: re.Pattern[str] = CALL_RE
) -> list[tuple[Path, int, str]]:
    """``(path, lineno, line)`` for every unmarked per-pair call.

    A root may be a directory (scanned recursively) or a single file.
    """
    offenders: list[tuple[Path, int, str]] = []
    for root in roots:
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if pattern.search(line) and MARKER not in line:
                    offenders.append((path, lineno, line.strip()))
    return offenders


def main(argv: list[str] | None = None) -> int:
    roots = tuple(Path(arg) for arg in argv) if argv else BATCHED_DIRS
    offenders = find_offenders(*roots)
    if not argv:
        offenders += find_offenders(MATCHING_DIR, pattern=DIJKSTRA_RE)

    def rel(path: Path) -> Path:
        return path.relative_to(REPO) if path.is_relative_to(REPO) else path

    if not offenders:
        print(
            "lint_batch_routing: OK ("
            + ", ".join(str(rel(root)) for root in roots)
            + ")"
        )
        return 0
    print("lint_batch_routing: unmarked per-pair routing calls in batched packages:")
    for path, lineno, line in offenders:
        print(f"  {rel(path)}:{lineno}: {line}")
    print(
        "Route query sets through RouteBatch.resolve (repro.roadnet.routing), or\n"
        f"mark an intentional per-pair call with '{MARKER}: <reason>' on the call line."
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
