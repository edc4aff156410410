"""Tests for trial results and candidates."""

import math

import pytest

from repro.autotuner.candidate import Candidate
from repro.autotuner.results import CandidateResults, Trial
from repro.autotuner.stats import fit_normal
from repro.config.configuration import Configuration
from repro.lang.metrics import AccuracyMetric


def metric_fn(outputs, inputs):
    return 0.0


HIGHER = AccuracyMetric(metric_fn, higher_is_better=True)
LOWER = AccuracyMetric(metric_fn, higher_is_better=False)


class TestCandidateResults:
    def test_add_and_query(self):
        results = CandidateResults()
        results.add(4, Trial(10.0, 0.5))
        results.add(4, Trial(12.0, 0.7))
        results.add(8, Trial(100.0, 0.9))
        assert results.count(4) == 2
        assert results.sizes() == (4.0, 8.0)
        assert results.mean_objective(4) == pytest.approx(11.0)
        assert results.mean_accuracy(4) == pytest.approx(0.6)

    def test_failed_trials_poison_objective(self):
        results = CandidateResults()
        results.add(4, Trial(10.0, 0.5))
        results.add(4, Trial(0.0, 0.0, failed=True))
        assert results.any_failed(4)
        assert results.mean_objective(4) == float("inf")
        assert float("inf") in results.objectives(4)

    def test_objective_fit_skips_failures(self):
        results = CandidateResults()
        results.add(4, Trial(10.0, 0.5))
        results.add(4, Trial(0.0, 0.0, failed=True))
        assert results.objective_fit(4).count == 1

    def test_failed_trial_stats(self):
        results = CandidateResults()
        results.add(4, Trial(10.0, 0.5))
        assert not results.stats(4, "objective").failed
        results.add(4, Trial(3.0, 0.25, failed=True))
        objective = results.stats(4, "objective")
        assert objective.values == (10.0, float("inf"))
        assert objective.failed
        accuracy = results.stats(4, "accuracy")
        assert accuracy.values == (0.5, 0.25)
        assert accuracy.failed

    def test_stats_cached_until_add(self):
        results = CandidateResults()
        results.add(4, Trial(10.0, 0.5))
        results.add(4, Trial(12.0, 0.7))
        first = results.stats(4, "objective")
        assert results.stats(4.0, "objective") is first
        assert first.fit == fit_normal([10.0, 12.0])
        results.add(4, Trial(20.0, 0.9))
        refreshed = results.stats(4, "objective")
        assert refreshed.values == (10.0, 12.0, 20.0)
        assert refreshed.fit == fit_normal([10.0, 12.0, 20.0])
        assert results.stats(4, "accuracy").values == (0.5, 0.7, 0.9)

    def test_stats_unknown_kind(self):
        with pytest.raises(ValueError):
            CandidateResults().stats(4, "nope")

    def test_empty_queries(self):
        results = CandidateResults()
        assert results.mean_objective(4) == float("inf")
        assert math.isnan(results.mean_accuracy(4))
        assert results.trials(4) == []


class TestCandidate:
    def config(self) -> Configuration:
        return Configuration({"a": 1})

    def test_ids_increase(self):
        first = Candidate(self.config())
        second = Candidate(self.config())
        assert second.candidate_id > first.candidate_id

    def test_lineage(self):
        parent = Candidate(self.config())
        child = Candidate(self.config(), parent=parent, step="mut")
        grandchild = Candidate(self.config(), parent=child, step="guided")
        assert child.parent_id == parent.candidate_id
        assert parent.lineage == ()
        assert grandchild.lineage == ("mut", "guided")

    def test_meets_accuracy_mean(self):
        candidate = Candidate(self.config())
        for accuracy in (0.8, 0.9, 1.0):
            candidate.results.add(4, Trial(1.0, accuracy))
        assert candidate.meets_accuracy(4, 0.9, HIGHER)
        assert not candidate.meets_accuracy(4, 0.95, HIGHER)

    def test_meets_accuracy_reads_the_unclamped_mean(self):
        """The sample mean of three 0.1s sums one ulp above 0.1;
        ``NormalFit.mean`` clamps it back, ``mean_accuracy`` does not."""
        candidate = Candidate(self.config())
        for _ in range(3):
            candidate.results.add(4, Trial(1.0, 0.1))
        mean = candidate.results.mean_accuracy(4)
        assert mean > 0.1
        assert candidate.meets_accuracy(4, mean, HIGHER)

    def test_meets_accuracy_lower_is_better(self):
        candidate = Candidate(self.config())
        candidate.results.add(4, Trial(1.0, 1.05))
        assert candidate.meets_accuracy(4, 1.1, LOWER)
        assert not candidate.meets_accuracy(4, 1.01, LOWER)

    def test_meets_accuracy_with_confidence_is_stricter(self):
        candidate = Candidate(self.config())
        for accuracy in (0.85, 0.95, 1.05):  # mean ~0.95, high variance
            candidate.results.add(4, Trial(1.0, accuracy))
        assert candidate.meets_accuracy(4, 0.94, HIGHER, confidence=None)
        assert not candidate.meets_accuracy(4, 0.94, HIGHER,
                                            confidence=0.95)

    def test_failed_trials_never_meet(self):
        candidate = Candidate(self.config())
        candidate.results.add(4, Trial(1.0, 5.0))
        candidate.results.add(4, Trial(1.0, 0.0, failed=True))
        assert not candidate.meets_accuracy(4, 0.1, HIGHER)

    def test_no_trials_never_meets(self):
        assert not Candidate(self.config()).meets_accuracy(4, 0.0, HIGHER)
