"""A speed probe: how fast the machine runs while the program runs.

On the shared 2-core VM the benchmark was built on, the same ``repro
serve`` replay took 3.39 s and, 25 s later, 2.22 s: user CPU time moved
with it, so the machine itself executes the same instructions at a speed
that drifts by tens of percent within seconds.  A fixed loop timed
between child processes tracked that drift poorly (per repetition the
coefficient of variation went only from 17% to 15%).

So each timed child runs :class:`SpeedProbe`: a daemon thread that every
``INTERVAL_S`` takes the interpreter lock and times a fixed tick, at the
same moments and on the same CPU as the program.  ``perfbench/run.py``
scales each repetition's times by ``NOMINAL_S`` over the mean tick of
that repetition: reported seconds are seconds on a machine whose tick
takes ``NOMINAL_S``.

The tick has two halves.  One is interpreter work on a small dict; the
other reads a ``_TABLE_LEN``-double table at random, so it slows when
neighbours crowd the shared cache, as the program (tens of MB) does.
Over 50 repetitions of one replay, medians of 5 varied by 10.6% raw,
4.2% scaled by the first half alone, 2.5% by the second alone and 1.5%
by both.  The table adds its 4 MB to every child's ``peak_rss_mb``.

The probe shares the machine with the program, so the program's own
GIL-free or memory-bound work could move the tick and hide a regression.
It does not do so measurably.  Two slowdowns were injected into a copy of
the program, once per micro-batch of the serve-live replay, and 40
interleaved rounds of base and slowed replays compared.  A pure-Python
loop (8.1% of the run, timed in place) read +10.3% raw and +10.4%
calibrated.  A GIL-free numpy add over 64 MB (19.8%) read +24.0% raw and
+21.5% calibrated; both tick halves stayed within 1.5% of the base's.

The probe costs the program about 2% of its time, the same on every
commit.  The tick must never change: timings are comparable across
commits only through it.
"""

from __future__ import annotations

import array
import random
import statistics
import threading
from time import perf_counter

#: Mean tick, in seconds, on the reference machine (2-core Xeon VM).
NOMINAL_S = 0.001
#: Pause between ticks.  The thread waits for the interpreter lock after
#: each pause (at most the 5 ms switch interval), so ticks come every
#: ~50-55 ms: ~18 per second of the program.
INTERVAL_S = 0.05

_TABLE_LEN = 1 << 19


class SpeedProbe:
    """Ticks in a background thread between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        rng = random.Random(3)
        self._table = array.array("d", (float(i) for i in range(_TABLE_LEN)))
        self._probes = [rng.randrange(_TABLE_LEN) for __ in range(4000)]
        self.ticks: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _tick(self) -> None:
        scratch: dict[int, float] = {}
        acc = 0.0
        for i in range(3000):
            scratch[i & 255] = acc
            acc += (i * 1.0001) % 7.3
        table = self._table
        for i in self._probes:
            acc += table[i]

    def _timed_tick(self) -> None:
        t0 = perf_counter()
        self._tick()
        self.ticks.append(perf_counter() - t0)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._timed_tick()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        """Stop ticking; the scale from this machine's seconds to nominal ones."""
        self._stop.set()
        self._thread.join()
        if not self.ticks:  # a run shorter than one interval
            self._timed_tick()
        return NOMINAL_S / statistics.mean(self.ticks)
