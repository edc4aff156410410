"""Tests for tuned-program execution, verify_accuracy, and guarantees."""

import numpy as np
import pytest

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import compile_program
from repro.errors import AccuracyError, ArtifactError, TrainingError
from repro.lang.metrics import AccuracyMetric
from repro.runtime.executor import TunedProgram
from repro.runtime.guarantees import (
    fixed_accuracy_metric,
    statistical_guarantee,
)

from tests.conftest import approxmean_inputs, make_approxmean_transform


@pytest.fixture(scope="module")
def tuned():
    program, _ = compile_program(make_approxmean_transform())
    harness = ProgramTestHarness(program, approxmean_inputs, base_seed=3)
    settings = TunerSettings(input_sizes=(16.0, 64.0, 256.0),
                             rounds_per_size=2, mutation_attempts=6,
                             min_trials=2, max_trials=5, seed=7,
                             initial_random=1,
                             accuracy_confidence=None)
    result = Autotuner(program, harness, settings).tune()
    return program, result.tuned_program()


class TestTunedProgram:
    def test_bins_sorted_least_to_most_accurate(self, tuned):
        _, tuned_program = tuned
        assert list(tuned_program.bins) == sorted(tuned_program.bins)

    def test_dynamic_bin_lookup(self, tuned):
        _, tuned_program = tuned
        target, _ = tuned_program.config_for_accuracy(0.7)
        assert target == 0.9
        target, _ = tuned_program.config_for_accuracy(0.95)
        assert target == 0.99

    def test_lookup_beyond_best_falls_back(self, tuned):
        _, tuned_program = tuned
        target, _ = tuned_program.config_for_accuracy(0.99999)
        assert target == 0.99

    def test_select_exposes_fallback(self, tuned):
        _, tuned_program = tuned
        assert not tuned_program.select(0.7).fallback
        decision = tuned_program.select(0.99999)
        assert decision.target == 0.99
        assert decision.fallback

    def test_run_records_bin_and_fallback(self, tuned, rng):
        """An unsatisfiable accuracy request is served by the most
        accurate bin, but the degradation is recorded, not silent."""
        _, tuned_program = tuned
        inputs = approxmean_inputs(64, rng)
        result = tuned_program.run(inputs, 64, accuracy=0.7)
        assert result.bin_target == 0.9
        assert not result.fallback
        assert result.escalations == 0
        degraded = tuned_program.run(inputs, 64, accuracy=0.99999)
        assert degraded.bin_target == 0.99
        assert degraded.fallback

    def test_run_default_uses_most_accurate(self, tuned, rng):
        _, tuned_program = tuned
        inputs = approxmean_inputs(256, rng)
        result = tuned_program.run(inputs, 256)
        assert "est" in result.outputs

    def test_run_verify_records_accuracy(self, tuned, rng):
        _, tuned_program = tuned
        inputs = approxmean_inputs(256, rng)
        result = tuned_program.run(inputs, 256, accuracy=0.9, verify=True)
        assert result.metrics.accuracy is not None
        assert result.metrics.accuracy >= 0.9

    def test_run_exact_bin(self, tuned, rng):
        _, tuned_program = tuned
        inputs = approxmean_inputs(256, rng)
        result = tuned_program.run(inputs, 256, bin_target=0.5)
        assert "est" in result.outputs

    def test_run_unknown_bin_rejected(self, tuned, rng):
        _, tuned_program = tuned
        with pytest.raises(TrainingError):
            tuned_program.run({"xs": np.ones(4)}, 4, bin_target=0.123)

    def test_run_both_selectors_rejected(self, tuned):
        _, tuned_program = tuned
        with pytest.raises(ValueError):
            tuned_program.run({"xs": np.ones(4)}, 4, accuracy=0.9,
                              bin_target=0.9)

    def test_verify_escalates_and_fails_cleanly(self, tuned, rng):
        _, tuned_program = tuned
        inputs = approxmean_inputs(64, rng)
        # Impossible requirement: accuracy can never exceed 1.0.
        with pytest.raises(AccuracyError) as excinfo:
            tuned_program.run(inputs, 64, accuracy=1.5, verify=True)
        assert excinfo.value.required == 1.5
        assert excinfo.value.achieved is not None

    def test_save_load_round_trip(self, tuned, tmp_path, rng):
        program, tuned_program = tuned
        path = tmp_path / "tuned.json"
        tuned_program.save(path)
        loaded = TunedProgram.load(program, path)
        assert loaded.bins == tuned_program.bins
        inputs = approxmean_inputs(64, rng)
        a = tuned_program.run(inputs, 64, seed=5)
        b = loaded.run(inputs, 64, seed=5)
        assert a.outputs["est"] == b.outputs["est"]

    def test_save_writes_versioned_artifact_with_guarantees(
            self, tuned, tmp_path):
        """save() persists the schema-versioned artifact format, and
        the per-bin guarantees survive the round trip."""
        import json as _json
        program, tuned_program = tuned
        path = tmp_path / "artifact.json"
        tuned_program.save(path)
        payload = _json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["program"] == "approxmean"
        loaded = TunedProgram.load(program, path)
        assert loaded.guarantees == tuned_program.guarantees
        assert loaded.guarantees  # tuning attached real guarantees

    def test_load_refuses_legacy_flat_format(self, tuned, tmp_path):
        """The pre-artifact flat {bin: config} JSON is refused, naming
        the file."""
        import json as _json
        program, tuned_program = tuned
        path = tmp_path / "legacy.json"
        path.write_text(_json.dumps(
            {f"{target:g}": config.to_json()
             for target, config in tuned_program.bin_configs.items()}))
        with pytest.raises(TrainingError, match="legacy.json"):
            TunedProgram.load(program, path)

    @staticmethod
    def _artifact_with_bin(tuned_program, path, key):
        """Save ``tuned_program``'s artifact with one extra bin key."""
        import json as _json
        payload = tuned_program.to_artifact().to_json()
        payload["bins"][key] = next(iter(payload["bins"].values()))
        path.write_text(_json.dumps(payload))

    def test_load_rejects_undeclared_bins(self, tuned, tmp_path):
        """Keys that parse as floats but name bins the program never
        declared must raise, naming the stray bins."""
        program, tuned_program = tuned
        path = tmp_path / "stray.json"
        self._artifact_with_bin(tuned_program, path, "0.75")
        with pytest.raises(ArtifactError, match="0.75"):
            TunedProgram.load(program, path)

    def test_load_rejects_non_bin_keys(self, tuned, tmp_path):
        program, tuned_program = tuned
        path = tmp_path / "bad.json"
        self._artifact_with_bin(tuned_program, path, "not-a-bin")
        with pytest.raises(ArtifactError, match="not-a-bin"):
            TunedProgram.load(program, path)

    def test_empty_bin_configs_rejected(self, tuned):
        program, _ = tuned
        with pytest.raises(TrainingError):
            TunedProgram(program, {})

    def test_undeclared_bins_rejected_at_construction(self, tuned):
        program, tuned_program = tuned
        config = next(iter(tuned_program.bin_configs.values()))
        with pytest.raises(TrainingError, match="0.123"):
            TunedProgram(program, {0.123: config})


class TestStatisticalGuarantee:
    metric = AccuracyMetric(lambda o, i: 0.0, higher_is_better=True)

    def test_holds_for_comfortable_margin(self):
        accuracies = [0.95, 0.96, 0.94, 0.95, 0.96]
        guarantee = statistical_guarantee(accuracies, 0.5, self.metric)
        assert guarantee.holds
        assert guarantee.bound < np.mean(accuracies)

    def test_fails_for_borderline_noisy(self):
        accuracies = [0.51, 0.49, 0.52, 0.48]
        guarantee = statistical_guarantee(accuracies, 0.5, self.metric,
                                          confidence=0.99)
        assert not guarantee.holds

    def test_lower_is_better_uses_upper_bound(self):
        metric = AccuracyMetric(lambda o, i: 0.0, higher_is_better=False)
        ratios = [1.02, 1.03, 1.01]
        guarantee = statistical_guarantee(ratios, 1.1, metric)
        assert guarantee.holds
        assert guarantee.bound > np.mean(ratios)

    def test_str_mentions_verdict(self):
        guarantee = statistical_guarantee([0.9, 0.9], 0.5, self.metric)
        assert "holds" in str(guarantee)


class TestFixedAccuracyMetric:
    def test_constant_value(self):
        metric = fixed_accuracy_metric(0.75)
        assert metric.compute({}, {}) == 0.75

    def test_singular_distribution(self):
        """Hand-proven accuracies make the fitted normal a point mass."""
        from repro.autotuner.stats import fit_normal
        metric = fixed_accuracy_metric(0.75)
        samples = [metric.compute({}, {}) for _ in range(5)]
        assert fit_normal(samples).is_singular()
