"""Host speed, probed between the benchmark's timed units.

On a shared host each vCPU switches between a fast state and one about
1.6x slower (another tenant busy on the same core), in spells from a
tenth of a second to a minute; a whole run can fall in a slow spell.
A short fixed loop, which does not touch the program under test, is
timed before and after every timed unit, on the CPU the work runs on
(``run.py`` pins the process to one CPU).  A unit's *speed factor* is
the mean of its two probes over the probe's time on the reference host
in its fast state, and the benchmark reports each unit's times divided
by that factor (its rates multiplied by it): seconds as the reference
host would have taken them.

The slow state does not slow all code alike, so each workload probes
with a loop like its own work: pure-Python dictionary and integer work
for the tuner (:data:`PYTHON`), calls of numpy ufuncs on small arrays
for the Poisson serving path (:data:`NUMPY`).  On the reference host, a
2-vCPU VM, the slow state slowed the bin-packing tuner by 1.61x and
the Python probe by 1.62x; normalising serve rounds by the numpy probe
left 5-7% spread between 20-second stretches whose raw times spread
34%.  On any host the factors show in each run's output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Probe", "PYTHON", "NUMPY", "SpeedProbe"]


def _python_loop() -> None:
    table: dict[int, int] = {}
    total = 0
    for step in range(6000):
        table[step & 511] = step
        total += len(table)


_ONES = np.ones(16)


def _numpy_loop() -> None:
    values = np.arange(16.0)
    for _ in range(300):
        values = np.add(values, _ONES) * 0.5
        values.sum()


@dataclass(frozen=True)
class Probe:
    """A fixed loop of about a millisecond, and its fastest time on the
    reference host."""

    loop: Callable[[], None]
    reference_s: float

    def measure(self) -> float:
        """The fastest of three runs, so a thread switch inside one run
        does not count."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self.loop()
            best = min(best, time.perf_counter() - start)
        return best


PYTHON = Probe(_python_loop, 0.00073)
NUMPY = Probe(_numpy_loop, 0.00076)


class SpeedProbe:
    """Speed factors of consecutive timed units.

    Create it right before the first unit, and call :meth:`factor`
    right after each unit ends; the probe taken then also serves as the
    next unit's first probe.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self._last = probe.measure()
        self.factors: list[float] = []

    def factor(self) -> float:
        """The speed factor of the unit that just ended (1.0 at the
        reference speed, higher on a slower host)."""
        before, self._last = self._last, self.probe.measure()
        value = (before + self._last) / (2.0 * self.probe.reference_s)
        self.factors.append(value)
        return value
