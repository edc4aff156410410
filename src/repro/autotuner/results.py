"""Trial results accumulated per candidate algorithm.

Each candidate stores, per training input size, the list of trials run
so far.  The adaptive comparison heuristic (Section 5.5.1) adds trials
one at a time; the mutators' results-copying optimisation (Section 5.4)
copies trials for input sizes a mutation provably did not affect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.autotuner.stats import NormalFit, fit_normal

__all__ = ["Trial", "SampleStats", "CandidateResults"]


@dataclass(frozen=True)
class Trial:
    """One timed, accuracy-measured execution of a candidate."""

    objective: float      # cost units (lower is better)
    accuracy: float       # value of the program's accuracy metric
    failed: bool = False  # execution raised (e.g. runaway recursion)


class SampleStats(NamedTuple):
    """One size's samples of one kind, as the comparator and the
    accuracy tests read them: everything here is derived from
    ``values`` (and ``failed``) once, when the samples change."""

    values: tuple[float, ...]
    fit: NormalFit      # fit_normal(values)
    failed: bool        # any trial at this size failed
    infinite: bool      # some value is +-inf
    finite: bool        # every value is finite (no inf, no nan)
    mean: float         # unclamped sum(values) / len(values); nan if empty


class CandidateResults:
    """Per-input-size trial storage."""

    __slots__ = ("_trials", "_stats")

    def __init__(self):
        self._trials: dict[float, list[Trial]] = {}
        #: (n, kind) -> SampleStats, valid while its sample count
        #: matches the trial count: trial lists only grow, so the count
        #: identifies their contents.
        self._stats: dict[tuple[float, str], SampleStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, n: float, trial: Trial) -> None:
        self._trials.setdefault(float(n), []).append(trial)

    def copy_from(self, other: "CandidateResults",
                  below_size: float | None = None) -> None:
        """Copy ``other``'s trials, optionally only for sizes < bound.

        Implements the mutator optimisation: "in cases where the
        behavior of the algorithm is unchanged either below or above a
        threshold ... the mutator copies unaffected results gathered on
        the input candidate algorithm to the output candidate
        algorithm" (Section 5.4).
        """
        for n, trials in other._trials.items():
            if below_size is None or n < below_size:
                self._trials.setdefault(n, []).extend(trials)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def trials(self, n: float) -> list[Trial]:
        return list(self._trials.get(float(n), ()))

    def count(self, n: float) -> int:
        return len(self._trials.get(float(n), ()))

    def sizes(self) -> tuple[float, ...]:
        return tuple(sorted(self._trials))

    def objectives(self, n: float) -> list[float]:
        """Objective samples at size ``n`` (failures become +inf)."""
        return [float("inf") if t.failed else t.objective
                for t in self._trials.get(float(n), ())]

    def accuracies(self, n: float) -> list[float]:
        return [t.accuracy for t in self._trials.get(float(n), ())]

    def any_failed(self, n: float) -> bool:
        return any(t.failed for t in self._trials.get(float(n), ()))

    def stats(self, n: float, kind: str) -> SampleStats:
        """Samples of ``kind`` at size ``n``, fitted once per trial count.

        ``kind="objective"`` gives the objective samples (failures
        become +inf), ``kind="accuracy"`` the raw accuracies.
        """
        n = float(n)
        cached = self._stats.get((n, kind))
        if cached is not None and \
                len(cached.values) == len(self._trials.get(n, ())):
            return cached
        if kind == "objective":
            values = tuple(self.objectives(n))
        elif kind == "accuracy":
            values = tuple(self.accuracies(n))
        else:
            raise ValueError(f"unknown comparison kind {kind!r}")
        infinite = any(map(math.isinf, values))
        stats = SampleStats(
            values, fit_normal(values), self.any_failed(n), infinite,
            not infinite and all(map(math.isfinite, values)),
            sum(values) / len(values) if values else float("nan"))
        self._stats[(n, kind)] = stats
        return stats

    def objective_fit(self, n: float) -> NormalFit:
        return fit_normal([v for v in self.objectives(n)
                           if v != float("inf")])

    def mean_objective(self, n: float) -> float:
        values = self.objectives(n)
        if not values:
            return float("inf")
        if any(v == float("inf") for v in values):
            return float("inf")
        return sum(values) / len(values)

    def mean_accuracy(self, n: float) -> float:
        values = self.accuracies(n)
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def __repr__(self) -> str:
        sizes = {n: len(trials) for n, trials in sorted(self._trials.items())}
        return f"CandidateResults({sizes})"
