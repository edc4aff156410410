"""Adaptive candidate comparison (Section 5.5.1).

"When comparing two candidate algorithms, C1 and C2, we perform the
following steps:

1. Use statistical hypothesis testing (a t-test) to estimate the
   probability P(observed results | C1 = C2).  If this results in a
   p-value less than 0.05, we consider C1 and C2 different and stop.
2. Use least squares to fit a normal distribution to the percentage
   difference in the mean performance or accuracy of the two
   algorithms.  If this distribution estimates there is a 95%
   probability of less than a 1% difference, consider the two
   algorithms the same and stop.
3. If both candidate algorithms have reached the maximum number of
   tests, consider the two algorithms the same and stop.
4. Run one additional test on either C1 or C2.  Decide which candidate
   to test based on the highest expected reduction in standard error
   and availability of tests without exceeding the maximum.
5. Go to step 1."

All constants are configurable, as in the paper.

Each verdict is decided once per sample state.  The loop's answer at a
state is a pure function of the two sample tuples, their failure flags
and the kind (the settings and metric are fixed per comparator), so
the comparator remembers every state at which the loop returned and
answers a later call that reaches it without any statistics or
top-ups.  States that still needed a trial are never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.autotuner.candidate import Candidate
from repro.autotuner.results import SampleStats
from repro.autotuner.stats import (
    probability_within_fraction,
    welch_p_value_from_fits,
)
from repro.autotuner.testing import ProgramTestHarness

__all__ = ["ComparisonSettings", "Comparator"]


@dataclass(frozen=True)
class ComparisonSettings:
    """Tunable constants of the comparison heuristic.

    The defaults are the paper's "typical values": 3..25 tests, p<0.05
    difference threshold, and the 95%-probability-of-<1%-difference
    closeness criterion.
    """

    min_trials: int = 3
    max_trials: int = 25
    p_threshold: float = 0.05
    same_fraction: float = 0.01
    same_confidence: float = 0.95

    def __post_init__(self):
        if self.min_trials < 1:
            raise ValueError("min_trials must be >= 1")
        if self.max_trials < self.min_trials:
            raise ValueError("max_trials must be >= min_trials")
        # Each range keeps its step able to decide: a NaN threshold
        # never finds a difference, and a non-positive fraction or a
        # confidence above 1 never finds two candidates the same.
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(
                f"p_threshold must be in (0, 1): {self.p_threshold!r}")
        if not (math.isfinite(self.same_fraction)
                and self.same_fraction > 0.0):
            raise ValueError(f"same_fraction must be finite and > 0: "
                             f"{self.same_fraction!r}")
        if not 0.0 < self.same_confidence <= 1.0:
            raise ValueError(f"same_confidence must be in (0, 1]: "
                             f"{self.same_confidence!r}")


class Comparator:
    """Compares candidates, adaptively running more trials as needed.

    Top-up trials flow through the harness's batch interface
    (``run_trial`` is a single-request batch), so they hit the same
    execution backend and trial cache as population-sized batches;
    the decision sequence itself is inherently serial.
    """

    def __init__(self, harness: ProgramTestHarness,
                 settings: ComparisonSettings | None = None):
        self.harness = harness
        self.settings = settings or ComparisonSettings()
        self.metric = harness.metric
        #: Number of compare() invocations (ablation instrumentation).
        self.comparisons = 0
        #: (kind, values1, failed1, values2, failed2) -> the verdict the
        #: loop returned at that state.  A NaN sample equals only
        #: itself under tuple equality, so it can only miss.
        self._verdicts: dict[tuple, int] = {}

    def _mean_better(self, mean1: float, mean2: float, kind: str) -> int:
        if math.isnan(mean1) or math.isnan(mean2):
            return 0
        if mean1 == mean2:
            return 0
        if kind == "objective":
            return 1 if mean1 < mean2 else -1
        return 1 if self.metric.better(mean1, mean2) else -1

    # ------------------------------------------------------------------
    # The heuristic
    # ------------------------------------------------------------------
    def compare(self, c1: Candidate, c2: Candidate, n: float,
                kind: str = "objective") -> int:
        """Return +1 if ``c1`` is better, -1 if ``c2`` is, 0 if same."""
        self.comparisons += 1
        settings = self.settings
        min_trials = settings.min_trials
        if c1.results.count(n) < min_trials:
            self.harness.ensure_trials(c1, n, min_trials)
        if c2.results.count(n) < min_trials:
            self.harness.ensure_trials(c2, n, min_trials)

        verdicts = self._verdicts
        while True:
            s1 = c1.results.stats(n, kind)
            s2 = c2.results.stats(n, kind)
            state = (kind, s1.values, s1.failed, s2.values, s2.failed)
            verdict = verdicts.get(state)
            if verdict is not None:
                return verdict
            verdict = self._decide(s1, s2, kind)
            if verdict is not None:
                verdicts[state] = verdict
                return verdict
            # Step 4: run one more trial where it most reduces the
            # standard error of the mean.
            self._run_most_informative(
                c1, c2, n, kind, len(s1.values) >= settings.max_trials,
                len(s2.values) >= settings.max_trials)

    def _decide(self, s1: SampleStats, s2: SampleStats,
                kind: str) -> int | None:
        """Steps 1-3 at one sample state: the verdict, or ``None`` when
        the state needs another trial."""
        settings = self.settings
        # Failed executions dominate all comparisons: a candidate
        # with a failing trial is strictly worse than one without.
        if s1.failed or s2.failed:
            if s1.failed and s2.failed:
                return 0
            return -1 if s1.failed else 1
        # Infinite objectives (without failure flags) compare the
        # same way.
        if s1.infinite or s2.infinite:
            if s1.infinite and s2.infinite:
                return 0
            return -1 if s1.infinite else 1

        x, y = s1.values, s2.values
        # Equal finite samples (never empty here: compare() tops both
        # sides up to min_trials >= 1) are what steps 1 and 2 would
        # call the same: p = 1 is never below p_threshold < 1, and
        # every paired difference is 0, so closeness is 1 >=
        # same_confidence.
        if s1.finite and x == y:
            return 0

        # Step 1: t-test.
        p = welch_p_value_from_fits(s1.fit, s2.fit)
        if p < settings.p_threshold:
            return self._mean_better(s1.fit.mean, s2.fit.mean, kind)

        # Step 2: closeness of the fitted difference distribution.
        probability = probability_within_fraction(
            x, y, settings.same_fraction, y_fit=s2.fit)
        if probability >= settings.same_confidence:
            return 0

        # Step 3: both at the trial budget -> same.
        if len(x) >= settings.max_trials and len(y) >= settings.max_trials:
            return 0
        return None

    def _run_most_informative(self, c1: Candidate, c2: Candidate, n: float,
                              kind: str, at_max1: bool, at_max2: bool
                              ) -> None:
        def expected_reduction(candidate: Candidate) -> float:
            fit = candidate.results.stats(n, kind).fit
            count = max(fit.count, 1)
            std = fit.std if fit.count >= 2 else abs(fit.mean) + 1.0
            return std / math.sqrt(count) - std / math.sqrt(count + 1)

        if at_max1:
            self.harness.run_trial(c2, n)
        elif at_max2:
            self.harness.run_trial(c1, n)
        elif expected_reduction(c1) >= expected_reduction(c2):
            self.harness.run_trial(c1, n)
        else:
            self.harness.run_trial(c2, n)
