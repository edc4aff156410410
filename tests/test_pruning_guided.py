"""Tests for population pruning and guided mutation."""

import numpy as np
import pytest

from repro.autotuner.candidate import Candidate
from repro.autotuner.comparison import Comparator, ComparisonSettings
from repro.autotuner.guided import guided_mutation
from repro.autotuner.pruning import k_fastest, prune_population
from repro.autotuner.testing import ProgramTestHarness
from repro.compiler.compile import compile_program
from repro.config.decision_tree import SizeDecisionTree

from tests.conftest import approxmean_inputs, make_approxmean_transform


@pytest.fixture
def setup():
    program, _ = compile_program(make_approxmean_transform())
    harness = ProgramTestHarness(program, approxmean_inputs, base_seed=0)
    comparator = Comparator(harness, ComparisonSettings(min_trials=2,
                                                        max_trials=5))
    return program, harness, comparator


def candidate_with_m(program, m: float) -> Candidate:
    return Candidate(program.default_config().with_entry(
        "approxmean@main.m", SizeDecisionTree([float(m)])))


class TestKFastest:
    def test_orders_by_cost(self, setup):
        program, harness, comparator = setup
        candidates = [candidate_with_m(program, m)
                      for m in (500, 10, 200, 50)]
        for candidate in candidates:
            harness.ensure_trials(candidate, 256, 2)
        top = k_fastest(candidates, 2, comparator, 256)
        costs = [c.results.mean_objective(256) for c in top]
        assert len(top) == 2
        assert costs == sorted(costs)
        assert costs[0] == 10

    def test_small_population_fully_sorted(self, setup):
        program, harness, comparator = setup
        candidates = [candidate_with_m(program, m) for m in (30, 10)]
        for candidate in candidates:
            harness.ensure_trials(candidate, 64, 2)
        top = k_fastest(candidates, 5, comparator, 64)
        assert [c.results.mean_objective(64) for c in top] == [10, 30]

    def test_discard_promotion(self, setup):
        """Step 4: a fast candidate stuck in DISCARD gets promoted."""
        program, harness, comparator = setup
        # Candidate with no trials sorts to the back of the rough sort
        # (mean objective inf) but is actually the fastest.
        fast_unmeasured = candidate_with_m(program, 1)
        slow = [candidate_with_m(program, m) for m in (100, 200, 300)]
        for candidate in slow:
            harness.ensure_trials(candidate, 64, 2)
        top = k_fastest(slow + [fast_unmeasured], 3, comparator, 64)
        assert fast_unmeasured in top

    def test_k_zero(self, setup):
        assert k_fastest([], 0, setup[2], 4) == []


class TestPrunePopulation:
    def test_keeps_k_per_bin(self, setup):
        program, harness, comparator = setup
        metric = harness.metric
        population = [candidate_with_m(program, m)
                      for m in (1, 2, 4, 16, 64, 5000)]
        for candidate in population:
            harness.ensure_trials(candidate, 512, 2)
        kept = prune_population(population, (0.5, 0.99), 2, comparator,
                                512, metric)
        assert 0 < len(kept) <= 5  # 2 bins x 2 + most accurate

    def test_keep_most_accurate_even_if_no_bin_met(self, setup):
        program, harness, comparator = setup
        metric = harness.metric
        population = [candidate_with_m(program, m) for m in (1, 2)]
        for candidate in population:
            harness.ensure_trials(candidate, 512, 2)
        kept = prune_population(population, (1.1,), 2, comparator, 512,
                                metric, keep_most_accurate=True)
        assert len(kept) == 1
        empty = prune_population(population, (1.1,), 2, comparator, 512,
                                 metric, keep_most_accurate=False)
        assert empty == []

    def test_no_duplicates(self, setup):
        program, harness, comparator = setup
        metric = harness.metric
        shared = candidate_with_m(program, 5000)
        harness.ensure_trials(shared, 512, 2)
        kept = prune_population([shared], (0.5, 0.9, 0.99), 2, comparator,
                                512, metric)
        assert kept == [shared]


class TestGuidedMutation:
    def test_climbs_to_target(self, setup):
        program, harness, _ = setup
        metric = harness.metric
        base = candidate_with_m(program, 1)
        harness.ensure_trials(base, 512, 2)
        population = [base]
        added = guided_mutation(population, harness, program.space,
                                (0.99,), 512, metric, min_trials=2,
                                max_evaluations=40)
        assert added, "hill climbing should add candidates"
        best = added[-1]
        assert best.meets_accuracy(512, 0.99, metric)

    def test_no_accuracy_variables_no_moves(self, setup):
        _, harness, _ = setup

        # A space with no accuracy variables.
        from repro.config.parameters import ParameterSpace
        from repro.lang.tunables import switch
        space = ParameterSpace([switch("s", ("a", "b"))])
        population = [Candidate(space.default_config())]
        added = guided_mutation(population, harness, space, (0.9,), 4,
                                harness.metric)
        assert added == []

    def test_respects_evaluation_budget(self, setup):
        program, harness, _ = setup
        metric = harness.metric
        base = candidate_with_m(program, 1)
        harness.ensure_trials(base, 512, 2)
        before = harness.trials_run
        guided_mutation([base], harness, program.space, (0.99,), 512,
                        metric, min_trials=2, max_evaluations=3)
        # 3 evaluations x 2 trials each, at most.
        assert harness.trials_run - before <= 3 * 2

    def test_empty_targets_noop(self, setup):
        program, harness, _ = setup
        base = candidate_with_m(program, 1)
        assert guided_mutation([base], harness, program.space, (), 4,
                               harness.metric) == []
