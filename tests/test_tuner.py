"""End-to-end tests of the autotuning main loop."""

import numpy as np
import pytest

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.autotuner.candidate import Candidate
from repro.autotuner.mutators import MutatorPool, TreeAddLevelMutator
from repro.compiler.compile import compile_program
from repro.config.parameters import ChoiceSiteParam
from repro.errors import ConfigError, TrainingError
from repro.lang.transform import Transform

from tests.conftest import approxmean_inputs, make_approxmean_transform


def quick_settings(**overrides) -> TunerSettings:
    defaults = dict(input_sizes=(16.0, 64.0, 256.0), rounds_per_size=2,
                    mutation_attempts=6, min_trials=2, max_trials=5,
                    seed=7, initial_random=1, guided_max_evaluations=16,
                    accuracy_confidence=None)
    defaults.update(overrides)
    return TunerSettings(**defaults)


def tune_approxmean(**overrides):
    program, _ = compile_program(make_approxmean_transform())
    harness = ProgramTestHarness(program, approxmean_inputs, base_seed=3)
    tuner = Autotuner(program, harness, quick_settings(**overrides))
    return program, harness, tuner.tune()


class TestTuneApproxmean:
    def test_all_bins_met(self):
        _, _, result = tune_approxmean()
        assert result.unmet_bins == ()
        assert set(result.best_per_bin) == {0.5, 0.9, 0.99}

    def test_frontier_costs_weakly_increase_with_accuracy(self):
        _, _, result = tune_approxmean()
        costs = [cost for _, _, cost in result.frontier()]
        assert costs[0] <= costs[-1]

    def test_tuned_configs_meet_their_bins(self):
        program, harness, result = tune_approxmean()
        n = result.sizes[-1]
        for target, candidate in result.best_per_bin.items():
            assert candidate.meets_accuracy(n, target, harness.metric)

    def test_config_for_unknown_bin_raises(self):
        _, _, result = tune_approxmean()
        with pytest.raises(TrainingError):
            result.config_for(0.12345)

    def test_deterministic_given_seed(self):
        _, _, first = tune_approxmean()
        _, _, second = tune_approxmean()
        assert first.trials_run == second.trials_run
        assert {t: c.config for t, c in first.best_per_bin.items()} == \
            {t: c.config for t, c in second.best_per_bin.items()}

    def test_logging_hook_invoked(self):
        messages = []
        tune_approxmean(log=messages.append)
        assert any("population" in m for m in messages)


class TestTargetEnforcement:
    def build_impossible(self):
        """A transform whose accuracy can never reach its top bin."""

        def metric(outputs, inputs):
            return 0.3  # constant, never 0.9

        transform = Transform("impossible", inputs=("x",),
                              outputs=("y",), accuracy_metric=metric,
                              accuracy_bins=(0.1, 0.9))
        transform.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        return compile_program(transform)[0]

    def test_warn_mode_records_unmet(self):
        program = self.build_impossible()
        harness = ProgramTestHarness(program, lambda n, rng: {"x": 0})
        result = Autotuner(program, harness,
                           quick_settings(require_targets="warn")).tune()
        assert result.unmet_bins == (0.9,)
        with pytest.raises(TrainingError):
            result.config_for(0.9)

    def test_error_mode_raises(self):
        program = self.build_impossible()
        harness = ProgramTestHarness(program, lambda n, rng: {"x": 0})
        with pytest.raises(TrainingError):
            Autotuner(program, harness,
                      quick_settings(require_targets="error")).tune()

    def test_transform_without_bins_rejected(self):
        transform = Transform("nobins", inputs=("x",), outputs=("y",),
                              accuracy_metric=lambda o, i: 1.0,
                              accuracy_bins=())
        transform.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        program, _ = compile_program(transform)
        harness = ProgramTestHarness(program, lambda n, rng: {"x": 0})
        with pytest.raises(TrainingError):
            Autotuner(program, harness, quick_settings())


class TestSettings:
    def test_exponential_default_sizes(self):
        settings = TunerSettings(max_input_size=64, min_input_size=2)
        assert settings.sizes() == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    def test_non_power_max_included(self):
        settings = TunerSettings(max_input_size=100, min_input_size=32)
        assert settings.sizes() == (32.0, 64.0, 100.0)

    def test_explicit_sizes_override(self):
        settings = TunerSettings(input_sizes=(3, 7))
        assert settings.sizes() == (3.0, 7.0)


class TestTrialCacheReplacesResultCopy:
    """Section 5.4 copies a parent's results to a child for the sizes
    the mutation left unchanged; the harness's trial cache replays
    them instead."""

    def test_add_level_child_replays_parent_below_cutoff(self):
        program, _ = compile_program(make_approxmean_transform())
        harness = ProgramTestHarness(program, approxmean_inputs,
                                     base_seed=3)
        parent = Candidate(program.default_config())
        harness.ensure_trials(parent, 16.0, 4)
        param = next(p for p in program.space
                     if isinstance(p, ChoiceSiteParam))
        config = TreeAddLevelMutator(param).mutate(
            parent, 64.0, np.random.default_rng(0))
        assert config[param.name].cutoffs == (48.0,)
        child = Candidate(config, parent=parent,
                          step=f"tree.addlevel:{param.name}")
        executed = harness.trials_executed
        harness.ensure_trials(child, 16.0, 4)
        assert harness.trials_executed == executed
        assert child.results.objectives(16.0) == \
            parent.results.objectives(16.0)
        assert child.results.accuracies(16.0) == \
            parent.results.accuracies(16.0)
        # Above the cutoff the child runs its new leaf.
        harness.ensure_trials(child, 64.0, 1)
        assert harness.trials_executed == executed + 1

    def test_winner_lineages_name_their_steps(self):
        """Each tuned winner remembers the configuration it was
        mutated from, and every step of its lineage names a pool
        mutator or a guided move on an accuracy variable."""
        program, _, result = tune_approxmean()
        steps = {m.name for m in MutatorPool.from_space(program.space)}
        steps |= {f"guided:{p.name}"
                  for p in program.space.accuracy_variables()}
        winners = list(result.best_per_bin.values())
        assert any(w.lineage for w in winners)
        for winner in winners:
            assert set(winner.lineage) <= steps
            assert (winner.parent_config is None) == (not winner.lineage)
            assert winner.parent_config != winner.config

    def test_copy_cannot_be_switched_off(self):
        with pytest.raises(ConfigError, match="trial cache"):
            TunerSettings(copy_parent_results=False)


class TestAblationSwitches:
    def test_guided_mutation_can_be_disabled(self):
        _, _, result = tune_approxmean(use_guided_mutation=False)
        # The result object is still produced; bins may or may not be
        # met depending on random mutation luck.
        assert result.trials_run > 0

    def test_uniform_scaling_pool(self):
        program, _ = compile_program(make_approxmean_transform())
        harness = ProgramTestHarness(program, approxmean_inputs,
                                     base_seed=3)
        tuner = Autotuner(program, harness,
                          quick_settings(lognormal_scaling=False))
        result = tuner.tune()
        assert result.trials_run > 0
