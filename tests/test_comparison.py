"""Tests for the adaptive comparison heuristic (Section 5.5.1)."""

import math

import numpy as np
import pytest

from repro.autotuner import TunerSettings
from repro.autotuner import comparison as comparison_module
from repro.autotuner.candidate import Candidate
from repro.autotuner.comparison import Comparator, ComparisonSettings
from repro.autotuner.results import Trial
from repro.autotuner.stats import (
    fit_normal,
    probability_within_fraction,
    welch_p_value,
)
from repro.autotuner.testing import ProgramTestHarness
from repro.compiler.compile import compile_program
from repro.config.decision_tree import SizeDecisionTree

from tests.conftest import approxmean_inputs, make_approxmean_transform
from tests.test_tune_golden import BINPACKING_SETTINGS, benchmark_tuner


def make_harness(noise: float = 0.0, seed: int = 0) -> ProgramTestHarness:
    program, _ = compile_program(make_approxmean_transform())
    return ProgramTestHarness(program, approxmean_inputs, base_seed=seed,
                              noise=noise)


def candidate_with_m(harness, m: float) -> Candidate:
    config = harness.program.default_config().with_entry(
        "approxmean@main.m", SizeDecisionTree([float(m)]))
    return Candidate(config)


class TestComparisonSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComparisonSettings(min_trials=0)
        with pytest.raises(ValueError):
            ComparisonSettings(min_trials=5, max_trials=3)
        # Constants that would disable a step: a NaN threshold never
        # finds a difference; a non-positive fraction or a confidence
        # above 1 never finds two candidates the same.
        for kwargs in (dict(p_threshold=math.nan), dict(p_threshold=0.0),
                       dict(p_threshold=1.0), dict(p_threshold=-0.05),
                       dict(same_fraction=-1.0), dict(same_fraction=0.0),
                       dict(same_fraction=math.nan),
                       dict(same_fraction=math.inf),
                       dict(same_confidence=2.0),
                       dict(same_confidence=0.0),
                       dict(same_confidence=math.nan)):
            with pytest.raises(ValueError):
                ComparisonSettings(**kwargs)
        ComparisonSettings(p_threshold=0.5, same_fraction=10.0,
                           same_confidence=1.0)


class TestNoiseValidation:
    @pytest.mark.parametrize("noise", [-0.1, -math.inf, math.inf, math.nan])
    def test_invalid_noise_raises(self, noise):
        with pytest.raises(ValueError, match="noise"):
            make_harness(noise=noise)

    def test_zero_noise_is_legal(self):
        assert make_harness(noise=0.0).noise == 0.0


class TestDeterministicComparisons:
    def test_clear_cost_difference_decided_at_min_trials(self):
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=3, max_trials=25))
        cheap = candidate_with_m(harness, 2)
        expensive = candidate_with_m(harness, 5000)
        assert comparator.compare(cheap, expensive, 64, "objective") == 1
        assert comparator.compare(expensive, cheap, 64, "objective") == -1
        # Deterministic costs: decided without extra trials.
        assert cheap.results.count(64) == 3
        assert expensive.results.count(64) == 3

    def test_identical_candidates_same(self):
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=3, max_trials=25))
        a = candidate_with_m(harness, 10)
        b = candidate_with_m(harness, 10)
        assert comparator.compare(a, b, 64, "objective") == 0
        assert a.results.count(64) == 3

    def test_accuracy_comparison_direction(self):
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=3, max_trials=25))
        rough = candidate_with_m(harness, 1)
        fine = candidate_with_m(harness, 5000)
        assert comparator.compare(fine, rough, 256, "accuracy") == 1

    def test_unknown_kind_rejected(self):
        harness = make_harness()
        comparator = Comparator(harness)
        a = candidate_with_m(harness, 4)
        with pytest.raises(ValueError):
            comparator.compare(a, a, 4, "nope")


class TestFailureDominance:
    def test_failed_candidate_loses(self):
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=2, max_trials=4))
        good = candidate_with_m(harness, 4)
        bad = candidate_with_m(harness, 4)
        harness.ensure_trials(good, 16, 2)
        from repro.autotuner.results import Trial
        bad.results.add(16, Trial(0.0, 0.0, failed=True))
        bad.results.add(16, Trial(0.0, 0.0, failed=True))
        assert comparator.compare(good, bad, 16, "objective") == 1
        assert comparator.compare(bad, good, 16, "objective") == -1

    def test_both_failed_same(self):
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=1, max_trials=2))
        from repro.autotuner.results import Trial
        a = candidate_with_m(harness, 4)
        b = candidate_with_m(harness, 4)
        for candidate in (a, b):
            candidate.results.add(16, Trial(0.0, 0.0, failed=True))
        assert comparator.compare(a, b, 16, "objective") == 0


class TestAdaptiveTrialCounts:
    def test_noise_increases_trials(self):
        """The paper's mouse-wiggle anecdote: more variance, more trials."""
        settings = ComparisonSettings(min_trials=3, max_trials=25)

        def trials_used(noise: float) -> int:
            harness = make_harness(noise=noise, seed=42)
            comparator = Comparator(harness, settings)
            # Two candidates with a small true cost difference.
            a = candidate_with_m(harness, 100)
            b = candidate_with_m(harness, 103)
            comparator.compare(a, b, 512, "objective")
            return a.results.count(512) + b.results.count(512)

        quiet = trials_used(0.0)
        noisy = trials_used(0.5)
        assert quiet == 6          # decided at min trials
        assert noisy > quiet       # variance forces extra testing

    def test_trials_never_exceed_max(self):
        harness = make_harness(noise=2.0, seed=1)
        settings = ComparisonSettings(min_trials=3, max_trials=8)
        comparator = Comparator(harness, settings)
        a = candidate_with_m(harness, 100)
        b = candidate_with_m(harness, 101)
        comparator.compare(a, b, 512, "objective")
        assert a.results.count(512) <= 8
        assert b.results.count(512) <= 8

    def test_indistinguishable_noisy_candidates_judged_same(self):
        harness = make_harness(noise=1.0, seed=3)
        settings = ComparisonSettings(min_trials=3, max_trials=6)
        comparator = Comparator(harness, settings)
        a = candidate_with_m(harness, 100)
        b = candidate_with_m(harness, 100)
        assert comparator.compare(a, b, 512, "objective") == 0


class RecomputingComparator(Comparator):
    """The comparison loop before per-candidate statistics were
    memoized: every pass rebuilds both sample lists and refits them."""

    @staticmethod
    def _samples(candidate, n, kind):
        if kind == "objective":
            return candidate.results.objectives(n)
        return candidate.results.accuracies(n)

    def compare(self, c1, c2, n, kind="objective"):
        self.comparisons += 1
        settings = self.settings
        self.harness.ensure_trials(c1, n, settings.min_trials)
        self.harness.ensure_trials(c2, n, settings.min_trials)
        while True:
            x = self._samples(c1, n, kind)
            y = self._samples(c2, n, kind)
            fail1 = c1.results.any_failed(n)
            fail2 = c2.results.any_failed(n)
            if fail1 or fail2:
                if fail1 and fail2:
                    return 0
                return -1 if fail1 else 1
            inf1 = any(math.isinf(v) for v in x)
            inf2 = any(math.isinf(v) for v in y)
            if inf1 or inf2:
                if inf1 and inf2:
                    return 0
                return -1 if inf1 else 1
            if welch_p_value(x, y) < settings.p_threshold:
                return self._mean_better(fit_normal(x).mean,
                                         fit_normal(y).mean, kind)
            if probability_within_fraction(
                    x, y, settings.same_fraction) >= \
                    settings.same_confidence:
                return 0
            at_max1 = len(x) >= settings.max_trials
            at_max2 = len(y) >= settings.max_trials
            if at_max1 and at_max2:
                return 0
            self._run_most_informative(c1, c2, n, kind, at_max1, at_max2)

    def _run_most_informative(self, c1, c2, n, kind, at_max1, at_max2):
        def expected_reduction(candidate):
            fit = fit_normal(self._samples(candidate, n, kind))
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


class TestMemoizedComparison:
    """Memoized comparison ≡ recomputed: same verdicts, same trials."""

    @pytest.mark.parametrize("noise", [0.05, 0.3])
    def test_matches_recomputing_loop(self, noise):
        settings = ComparisonSettings(min_trials=2, max_trials=12)
        ms = (40, 41, 44, 60, 100, 400)

        def run(comparator_type):
            harness = make_harness(noise=noise, seed=17)
            comparator = comparator_type(harness, settings)
            pool = [candidate_with_m(harness, m) for m in ms]
            verdicts = []
            # Candidates meet again across sizes and kinds, so each
            # compare starts from samples the earlier ones grew.
            for n in (64, 256):
                for kind in ("objective", "accuracy"):
                    for i, a in enumerate(pool):
                        for b in pool[i + 1:]:
                            verdicts.append(comparator.compare(a, b, n,
                                                               kind))
            counts = [c.results.count(n) for c in pool for n in (64, 256)]
            return verdicts, counts

        assert run(Comparator) == run(RecomputingComparator)

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
    def test_repeated_pairs_match_recomputing_loop(self, noise):
        """Every ordered pair compared twice, including a failing
        candidate, an infinite-objective one and two candidates with
        equal samples (equal configs pair the same inputs and noise)."""
        settings = ComparisonSettings(min_trials=2, max_trials=12)
        ms = (40, 40, 44, 60, 400)
        sizes = (64, 256)

        def run(comparator_type):
            harness = make_harness(noise=noise, seed=23)
            comparator = comparator_type(harness, settings)
            pool = [candidate_with_m(harness, m) for m in ms]
            failing = candidate_with_m(harness, 44)
            infinite = candidate_with_m(harness, 44)
            for n in sizes:
                failing.results.add(n, Trial(1.0, 0.5, failed=True))
                infinite.results.add(n, Trial(math.inf, 0.5))
            pool += [failing, infinite]
            verdicts = []
            for n in sizes:
                for kind in ("objective", "accuracy"):
                    for _ in range(2):
                        for a in pool:
                            for b in pool:
                                if a is not b:
                                    verdicts.append(
                                        comparator.compare(a, b, n, kind))
            counts = [c.results.count(n) for c in pool for n in sizes]
            return verdicts, counts

        assert run(Comparator) == run(RecomputingComparator)


def count_calls(monkeypatch, name: str) -> list:
    """Spy on the comparison module's ``name``; returns the call log."""
    calls = []
    original = getattr(comparison_module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(comparison_module, name, spy)
    return calls


class TestVerdictMemo:
    def test_equal_samples_share_one_welch_evaluation(self, monkeypatch):
        welch = count_calls(monkeypatch, "welch_p_value_from_fits")
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=3, max_trials=25))
        a = candidate_with_m(harness, 10)
        b = candidate_with_m(harness, 10)   # a different candidate...
        other = candidate_with_m(harness, 5000)
        assert comparator.compare(a, other, 64) == 1
        harness.ensure_trials(b, 64, 3)
        assert a.results.stats(64, "objective").values == \
            b.results.stats(64, "objective").values   # ...equal samples
        assert comparator.compare(b, other, 64) == 1
        assert len(welch) == 1

    def test_equal_finite_samples_skip_the_statistics(self, monkeypatch):
        welch = count_calls(monkeypatch, "welch_p_value_from_fits")
        close = count_calls(monkeypatch, "probability_within_fraction")
        harness = make_harness(noise=0.3, seed=5)
        comparator = Comparator(harness)
        a = candidate_with_m(harness, 100)
        b = candidate_with_m(harness, 100)
        assert comparator.compare(a, b, 512) == 0
        assert comparator.compare(a, b, 512, "accuracy") == 0
        assert welch == [] and close == []
        # The recomputing loop reaches the same verdict the long way.
        recomputing = RecomputingComparator(harness)
        assert recomputing.compare(a, b, 512) == 0
        assert a.results.count(512) == b.results.count(512) == 3

    def test_shared_nan_samples_are_not_judged_same(self):
        """Shared trials share their float objects, so NaN samples can
        compare equal as tuples; the loop still tops them up."""
        settings = ComparisonSettings(min_trials=2, max_trials=4)

        def run(comparator_type):
            harness = make_harness()
            a = candidate_with_m(harness, 10)
            for _ in range(2):
                a.results.add(64, Trial(1.0, math.nan))
            b = candidate_with_m(harness, 10)
            for trial in a.results.trials(64):
                b.results.add(64, trial)
            verdict = comparator_type(harness, settings).compare(
                a, b, 64, "accuracy")
            return verdict, a.results.count(64), b.results.count(64)

        assert run(Comparator) == run(RecomputingComparator) == (0, 4, 4)

    def test_verdicts_are_kept_per_kind(self):
        """Equal objective and accuracy samples point opposite ways:
        lower objectives are better, higher accuracies are."""
        harness = make_harness()
        comparator = Comparator(harness, ComparisonSettings(
            min_trials=2, max_trials=4))
        low = candidate_with_m(harness, 10)
        high = candidate_with_m(harness, 10)
        for value in (1.0, 1.5):
            low.results.add(16, Trial(value, value))
            high.results.add(16, Trial(value + 10.0, value + 10.0))
        assert comparator.compare(low, high, 16, "objective") == 1
        assert comparator.compare(low, high, 16, "accuracy") == -1

    def test_golden_binpacking_tune_halves_welch(self, monkeypatch):
        """The golden tune's 267 comparisons evaluated Welch's test 338
        times before verdicts were memoized."""
        welch = count_calls(monkeypatch, "welch_p_value_from_fits")
        tuner = benchmark_tuner("binpacking",
                                TunerSettings(**BINPACKING_SETTINGS), 5)
        tuner.tune()
        assert tuner.comparator.comparisons == 267
        assert len(welch) < 338 / 2
