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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.autotuner.candidate import Candidate
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
        self.harness.ensure_trials(c1, n, settings.min_trials)
        self.harness.ensure_trials(c2, n, settings.min_trials)

        while True:
            s1 = c1.results.stats(n, kind)
            s2 = c2.results.stats(n, kind)
            x, y = s1.values, s2.values

            # Failed executions dominate all comparisons: a candidate
            # with a failing trial is strictly worse than one without.
            if s1.failed or s2.failed:
                if s1.failed and s2.failed:
                    return 0
                return -1 if s1.failed else 1
            # Infinite objectives (without failure flags) compare the
            # same way.
            inf1 = any(math.isinf(v) for v in x)
            inf2 = any(math.isinf(v) for v in y)
            if inf1 or inf2:
                if inf1 and inf2:
                    return 0
                return -1 if inf1 else 1

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
            at_max1 = len(x) >= settings.max_trials
            at_max2 = len(y) >= settings.max_trials
            if at_max1 and at_max2:
                return 0

            # Step 4: run one more trial where it most reduces the
            # standard error of the mean.
            self._run_most_informative(c1, c2, n, kind, at_max1, at_max2)

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
