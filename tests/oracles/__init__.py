"""Reference implementations the production kernels are verified against.

Every stage in ``src/repro`` has one production implementation — the
batched NumPy kernel.  The plain-Python originals those kernels replaced
live here, unchanged in behaviour, so the equivalence property tests
and the perf benches' speedup ratios still have something exact to
compare against:

* :mod:`tests.oracles.cleaning` — per-gap Table 2 segmentation and the
  sort-and-walk ordering repair;
* :mod:`tests.oracles.od` — the per-movement gate-crossing loop;
* :mod:`tests.oracles.matching` — per-fix candidate scoring and the
  pure-Python Viterbi with one capped Dijkstra per exit endpoint;
* :mod:`tests.oracles.routing` — an engine proxy without a many-to-many
  kernel, which puts gap filling on its per-gap loop.

Each oracle keeps the call signature of the production function it
mirrors, so a test can swap it in with ``monkeypatch`` and run a whole
study on the reference path.  Nothing under ``src/`` imports this
package.
"""
