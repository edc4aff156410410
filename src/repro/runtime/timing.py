"""The deterministic operation-count cost model.

The paper evaluates candidates by wall-clock time on a dedicated 8-core
machine.  A pure-Python reproduction cannot use wall-clock time as the
signal without making every experiment nondeterministic and
machine-dependent, so every substrate kernel in this repository
*accounts its work* — floating-point operations, comparisons, item
moves — into a :class:`CostAccumulator`, and the autotuner optimises
that count: the one objective, which makes "who wins / by what factor"
reproducible.  Wall time is measured from outside (the perfbench
spans) and compared against cost, never optimised.

DESIGN.md documents this as the hardware substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostAccumulator", "CostLimitExceeded", "Metrics"]


class CostLimitExceeded(Exception):
    """Execution exceeded its cost budget.

    Subclasses nothing from repro.errors to avoid an import cycle; the
    test harness and executor treat it like any execution failure.  It
    plays the role of the trial timeout a wall-clock autotuner would
    use: candidate configurations that drive runaway work (e.g. deep
    recursion with many V-cycles per level) fail their trial instead
    of stalling training.
    """


class CostAccumulator:
    """Accumulates abstract operation counts during one execution."""

    __slots__ = ("units", "limit")

    def __init__(self, limit: float | None = None):
        self.units = 0.0
        self.limit = limit

    def add(self, units: float) -> None:
        self.units += float(units)
        if self.limit is not None and self.units > self.limit:
            raise CostLimitExceeded(
                f"cost {self.units:g} exceeded limit {self.limit:g}")

    def reset(self) -> None:
        self.units = 0.0

    def __repr__(self) -> str:
        return f"CostAccumulator(units={self.units:g})"


@dataclass
class Metrics:
    """Measurements from one execution of a compiled program."""

    cost: float = 0.0
    accuracy: float | None = None
