"""Lint: no unmarked scalar-haversine imports inside the cleaning package.

The cleaning stage owns the hottest per-point loops in the pipeline, and
its fast paths go through :mod:`repro.geo.vector`.  A new import of the
scalar :func:`repro.geo.distance.haversine_m` in ``repro/cleaning/`` is
almost always a perf regression sneaking in — per-pair trig calls in a
loop instead of one batch kernel.

Scalar imports that are *intentional* (genuinely per-pair predicates,
or per-fix previews; the reference implementations the kernels are
verified against live in ``tests/oracles``) carry a ``# scalar-ok:
<reason>`` marker on the import line.
Everything else fails this check:

    python tools/lint_scalar_kernels.py

Run by the CI lint job next to ruff.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CLEANING_DIR = REPO / "src" / "repro" / "cleaning"

#: Import lines that pull the scalar kernel into a module's namespace.
#: Call sites are not flagged — once the import carries a marker, the
#: module has declared why it is on the scalar path.
IMPORT_RE = re.compile(
    r"^\s*(?:from\s+repro\.geo(?:\.distance)?\s+import\s+.*\bhaversine_m\b"
    r"|import\s+repro\.geo\.distance\b)"
)
MARKER = "# scalar-ok"


def find_offenders(root: Path) -> list[tuple[Path, int, str]]:
    """``(path, lineno, line)`` for every unmarked scalar import."""
    offenders: list[tuple[Path, int, str]] = []
    for path in sorted(root.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if IMPORT_RE.match(line) and MARKER not in line:
                offenders.append((path, lineno, line.strip()))
    return offenders


def main(argv: list[str] | None = None) -> int:
    root = Path(argv[0]) if argv else CLEANING_DIR
    offenders = find_offenders(root)

    def rel(path: Path) -> Path:
        return path.relative_to(REPO) if path.is_relative_to(REPO) else path

    if not offenders:
        print(f"lint_scalar_kernels: OK ({rel(root)})")
        return 0
    print("lint_scalar_kernels: unmarked scalar haversine_m imports in the cleaning package:")
    for path, lineno, line in offenders:
        print(f"  {rel(path)}:{lineno}: {line}")
    print(
        "Use the vectorized kernels (repro.geo.vector) in cleaning hot paths, or\n"
        f"mark an intentional scalar import with '{MARKER}: <reason>' on the import line."
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
