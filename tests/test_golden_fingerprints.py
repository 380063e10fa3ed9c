"""Golden study fingerprints: the behaviour contract, pinned to disk.

Each case runs a small default study (5 simulated days, seed 2012) and
compares its :func:`~repro.stream.compare.study_fingerprint` — every
artefact the paper derives, floats rendered as ``float.hex`` — against
a committed file under ``tests/data/golden/``.  Any change to cleaning,
gating, matching, gap-fill routing, features or the mixed model then
shows up as an explicit diff of those files, not as a silently moved
number.

The golden files hold each fingerprint component as parsed JSON
(pretty-printed, so a review diff names the changed field); the test
re-serialises them canonically and compares strings, so equality is
exact — except for the mixed model's floats, see :data:`TOLERANCES`.

Regenerate (only for an intended behaviour change, and say why)::

    PYTHONPATH=src python -m tests.test_golden_fingerprints
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments import OuluStudy, StudyConfig
from repro.parallel import ExecutorConfig
from repro.stream.compare import study_fingerprint
from repro.traces import FleetSpec

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

SEED = 2012
DAYS = 5

#: name -> (matcher, routing engine)
CASES = {
    "incremental": ("incremental", "dijkstra"),
    "hmm": ("hmm", "dijkstra"),
    "incremental_ch": ("incremental", "ch"),
}

#: Components whose float leaves compare at a relative tolerance, not
#: bit for bit.  The REML fit sums thousands of speeds in BLAS dot
#: products whose order depends on the CPU's OpenBLAS kernel, and the
#: golden-section search over lambda amplifies last-bit differences:
#: forcing ``OPENBLAS_CORETYPE=Haswell`` on an AVX-512 host moves these
#: floats by up to ~1.2e-7 relative.  The fit's inputs — every speed and
#: its cell — are pinned bitwise by the ``grid`` component, and its
#: non-float fields (names, groups, sizes, n) still compare exactly.
TOLERANCES = {"mixed": 1e-6}


def _config(matcher: str, engine: str) -> StudyConfig:
    return StudyConfig(
        fleet=FleetSpec(n_days=DAYS, seed=SEED),
        matcher=matcher,
        executor=ExecutorConfig(routing_engine=engine),
    )


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"study_seed{SEED}_days{DAYS}_{name}.json"


def _canonical(obj) -> str:
    # Same rendering as repro.stream.compare's canonicaliser.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_hex_float(value) -> bool:
    return isinstance(value, str) and value.lstrip("-").startswith("0x")


def _close(golden, got, rel: float) -> bool:
    """Structural equality with hex-float leaves compared at ``rel``."""
    if isinstance(golden, dict):
        return (
            isinstance(got, dict)
            and golden.keys() == got.keys()
            and all(_close(golden[k], got[k], rel) for k in golden)
        )
    if isinstance(golden, list):
        return (
            isinstance(got, list)
            and len(golden) == len(got)
            and all(_close(a, b, rel) for a, b in zip(golden, got))
        )
    if _is_hex_float(golden) and _is_hex_float(got):
        return math.isclose(
            float.fromhex(golden), float.fromhex(got), rel_tol=rel, abs_tol=rel
        )
    return golden == got


def _fingerprint(name: str) -> dict[str, str]:
    matcher, engine = CASES[name]
    return study_fingerprint(OuluStudy(_config(matcher, engine)).run())


@pytest.mark.parametrize("name", sorted(CASES))
def test_study_fingerprint_matches_golden(name):
    golden = json.loads(_golden_path(name).read_text())
    got = _fingerprint(name)
    assert sorted(got) == sorted(golden)
    # Component-first so a failure names the diverging artefact.
    for component, value in golden.items():
        if component in TOLERANCES:
            same = _close(value, json.loads(got[component]), TOLERANCES[component])
        else:
            same = got[component] == _canonical(value)
        assert same, f"golden {name}: artefact {component!r} changed"


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        doc = {k: json.loads(v) for k, v in _fingerprint(name).items()}
        _golden_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {_golden_path(name)}")


if __name__ == "__main__":
    _write_goldens()
