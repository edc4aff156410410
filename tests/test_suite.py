"""Tests for the six paper benchmarks written in the DSL."""

import json

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.lang import check, describe
from repro.serving.artifact import ArtifactBin, TunedArtifact
from repro.suite import all_benchmarks, get_benchmark


def run_default(name: str, n: int, seed: int = 0, config=None,
                collect_trace: bool = False):
    spec = get_benchmark(name)
    program, _ = spec.compile()
    inputs = spec.generate(n, np.random.default_rng(seed))
    config = config or program.default_config()
    result = program.execute(inputs, n, config, seed=seed,
                             collect_trace=collect_trace)
    accuracy = program.accuracy_of(result.outputs, inputs)
    return spec, program, inputs, result, accuracy


class TestRegistry:
    def test_all_six_present(self):
        assert set(all_benchmarks()) == {
            "binpacking", "clustering", "helmholtz", "imagecompression",
            "poisson", "preconditioner"}

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("nope")

    @pytest.mark.parametrize("name", sorted(
        ["binpacking", "clustering", "imagecompression",
         "preconditioner"]))
    def test_compile_and_run_defaults(self, name):
        spec, program, inputs, result, accuracy = run_default(
            name, int(get_benchmark(name).training_sizes[0]))
        assert result.cost > 0
        assert np.isfinite(accuracy)

    @pytest.mark.parametrize("name", ["poisson", "helmholtz"])
    def test_compile_and_run_multigrid_defaults(self, name):
        spec, program, inputs, result, accuracy = run_default(name, 7)
        assert result.cost > 0
        assert accuracy > 0  # some improvement over the zero guess


class TestDeclarationSurface:
    """Every registered benchmark: clean compile, working describe(),
    and a config space that survives the artifact JSON round trip."""

    @pytest.mark.parametrize("name", sorted(all_benchmarks()))
    def test_compiles_cleanly(self, name):
        diagnostics = check(name)
        assert not diagnostics, diagnostics.render()

    @pytest.mark.parametrize("name", sorted(all_benchmarks()))
    def test_describe_renders(self, name):
        program, _ = get_benchmark(name).compile()
        text = describe(program)
        assert f"program {program.root}" in text
        assert "config-space digest" in text
        assert "accuracy bins" in text
        for param in program.root_transform.tunables:
            assert f"tunable {param.name}" in text

    @pytest.mark.parametrize("name", sorted(all_benchmarks()))
    def test_config_space_roundtrips_through_artifact_json(self, name):
        spec = get_benchmark(name)
        program, _ = spec.compile()
        root = program.root_transform
        config = program.default_config()
        artifact = TunedArtifact(
            program=program.root,
            metric=root.accuracy_metric.name,
            declared_bins=root.accuracy_bins,
            bins=tuple(ArtifactBin(target=target, config=config)
                       for target in root.accuracy_bins),
            provenance=program.provenance)
        payload = json.dumps(artifact.to_json(), sort_keys=True)
        restored = TunedArtifact.from_json(json.loads(payload))
        assert restored.bin_targets == root.accuracy_bins
        for entry in restored.bins:
            program.space.validate(entry.config)
            assert entry.config.dumps() == config.dumps()
        # a fresh compile of the same benchmark exposes the same space
        assert spec.compile()[0].space.digest() == program.space.digest()


class TestBinpackingBenchmark:
    def test_thirteen_rules(self):
        program, _ = get_benchmark("binpacking").compile()
        site = program.space["binpacking@main.rule.assignment+num_bins"]
        assert site.num_choices == 13

    def test_each_algorithm_selectable(self):
        spec = get_benchmark("binpacking")
        program, _ = spec.compile()
        inputs = spec.generate(64, np.random.default_rng(0))
        key = "binpacking@main.rule.assignment+num_bins"
        accuracies = {}
        for index in range(13):
            config = program.default_config().with_entry(
                key, SizeDecisionTree([index]))
            result = program.execute(inputs, 64, config, seed=0)
            accuracies[index] = program.accuracy_of(result.outputs,
                                                    inputs)
        assert all(a >= 1.0 for a in accuracies.values())
        assert len(set(accuracies.values())) > 1

    def test_metric_is_lower_better(self):
        program, _ = get_benchmark("binpacking").compile()
        metric = program.root_transform.accuracy_metric
        assert not metric.higher_is_better
        assert program.root_transform.accuracy_bins[0] == 1.5
        assert program.root_transform.accuracy_bins[-1] == 1.01


class TestClusteringBenchmark:
    def test_k_controls_centroid_count(self):
        spec = get_benchmark("clustering")
        program, _ = spec.compile()
        inputs = spec.generate(128, np.random.default_rng(0))
        for k in (2, 17):
            config = program.default_config().with_entry(
                "kmeans@main.k", SizeDecisionTree([float(k)]))
            result = program.execute(inputs, 128, config, seed=0,
                                     collect_trace=True)
            lloyd = result.trace.of_kind("lloyd")[0]
            assert lloyd["k"] == k

    def test_accuracy_increases_with_k(self):
        spec = get_benchmark("clustering")
        program, _ = spec.compile()
        inputs = spec.generate(256, np.random.default_rng(1))

        def accuracy_for(k):
            config = program.default_config().with_entry(
                "kmeans@main.k", SizeDecisionTree([float(k)]))
            result = program.execute(inputs, 256, config, seed=1)
            return program.accuracy_of(result.outputs, inputs)

        assert accuracy_for(64) > accuracy_for(2)

    def test_iteration_modes(self):
        spec = get_benchmark("clustering")
        program, _ = spec.compile()
        inputs = spec.generate(128, np.random.default_rng(2))
        iterations = {}
        for mode in ("once", "threshold", "fixpoint"):
            config = program.default_config().with_entries({
                "kmeans@main.iter_mode": mode,
                "kmeans@main.k": SizeDecisionTree([10.0]),
            })
            result = program.execute(inputs, 128, config, seed=2,
                                     collect_trace=True)
            iterations[mode] = result.trace.of_kind("lloyd")[0][
                "iterations"]
        assert iterations["once"] == 1
        assert iterations["once"] <= iterations["threshold"] <= \
            iterations["fixpoint"]

    def test_once_mode_replays_across_lloyd_iters(self):
        """``"once"`` never reads ``lloyd_iters``, so a config that
        differs only there replays the first one's trial."""
        from repro.autotuner import ProgramTestHarness
        from repro.autotuner.candidate import Candidate
        spec = get_benchmark("clustering")
        program, _ = spec.compile()
        harness = ProgramTestHarness(program, spec.generate, base_seed=4)
        once = program.default_config().with_entry(
            "kmeans@main.iter_mode", "once")
        first = Candidate(once)
        second = Candidate(once.with_entry("kmeans@main.lloyd_iters", 50.0))
        assert first.config.digest != second.config.digest
        harness.ensure_trials(first, 64.0, 1)
        assert harness.trials_executed == 1
        harness.ensure_trials(second, 64.0, 1)
        assert harness.trials_executed == 1
        assert second.results.trials(64.0) == first.results.trials(64.0)


class TestPoissonBenchmark:
    def test_direct_rule_reaches_machine_precision(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        inputs = spec.generate(15, np.random.default_rng(0))
        config = program.default_config().with_entry(
            "poisson@main.rule.u", SizeDecisionTree([2]))  # direct
        result = program.execute(inputs, 15, config, seed=0)
        assert program.accuracy_of(result.outputs, inputs) > 10

    def test_direct_rule_gated_at_large_sizes(self):
        from repro.suite.poisson import DIRECT_MAX_SIZE
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        n = 63
        assert n > DIRECT_MAX_SIZE
        inputs = spec.generate(n, np.random.default_rng(0))
        config = program.default_config().with_entry(
            "poisson@main.rule.u", SizeDecisionTree([2]))
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            program.execute(inputs, n, config, seed=0)

    def test_more_vcycles_more_accuracy(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        inputs = spec.generate(15, np.random.default_rng(1))

        def accuracy_for(vcycles):
            updates = {key: SizeDecisionTree([float(vcycles)])
                       for key in program.space.names()
                       if key.endswith(".vcycles")}
            config = program.default_config().with_entries(updates)
            result = program.execute(inputs, 15, config, seed=1)
            return program.accuracy_of(result.outputs, inputs)

        assert accuracy_for(4) > accuracy_for(1)

    def test_iterative_rule_improves_with_iterations(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        inputs = spec.generate(15, np.random.default_rng(2))

        def accuracy_for(iters):
            config = program.default_config().with_entries({
                "poisson@main.rule.u": SizeDecisionTree([3]),  # iterative
                "poisson@main.sor_iters": SizeDecisionTree([float(iters)]),
            })
            result = program.execute(inputs, 15, config, seed=2)
            return program.accuracy_of(result.outputs, inputs)

        assert accuracy_for(400) > accuracy_for(10)

    def test_rule_order(self):
        program, _ = get_benchmark("poisson").compile()
        site = program.space["poisson@main.rule.u"]
        assert site.choice_labels == ("multigrid", "full_multigrid",
                                      "direct", "iterative")

    def test_generator_rejects_bad_sizes(self):
        spec = get_benchmark("poisson")
        with pytest.raises(ValueError):
            spec.generate(10, np.random.default_rng(0))


class TestHelmholtzBenchmark:
    def test_cycle_events_recorded(self):
        _, _, _, result, _ = run_default("helmholtz", 7,
                                         collect_trace=True)
        events = result.trace.of_kind("mg")
        assert events, "multigrid rules must record mg events"
        actions = {event["action"] for event in events}
        assert "relax" in actions

    def test_direct_gate(self):
        from repro.errors import ExecutionError
        from repro.suite.helmholtz import DIRECT_MAX_SIZE
        spec = get_benchmark("helmholtz")
        program, _ = spec.compile()
        n = 15
        assert n > DIRECT_MAX_SIZE
        inputs = spec.generate(n, np.random.default_rng(0))
        config = program.default_config().with_entry(
            "helmholtz@main.rule.phi", SizeDecisionTree([2]))
        with pytest.raises(ExecutionError):
            program.execute(inputs, n, config, seed=0)

    def test_direct_solves_small_exactly(self):
        spec = get_benchmark("helmholtz")
        program, _ = spec.compile()
        inputs = spec.generate(7, np.random.default_rng(1))
        config = program.default_config().with_entry(
            "helmholtz@main.rule.phi", SizeDecisionTree([2]))
        result = program.execute(inputs, 7, config, seed=1)
        assert program.accuracy_of(result.outputs, inputs) > 10


class TestImageCompressionBenchmark:
    def test_both_rules_agree(self):
        spec = get_benchmark("imagecompression")
        program, _ = spec.compile()
        inputs = spec.generate(12, np.random.default_rng(0))
        results = {}
        for index, label in ((0, "hybrid_qr"), (1, "bisection_topk")):
            config = program.default_config().with_entries({
                "imagecompression@main.rule.approx":
                    SizeDecisionTree([index]),
                "imagecompression@main.k": SizeDecisionTree([3.0]),
            })
            result = program.execute(inputs, 12, config, seed=0)
            results[label] = result
        assert np.allclose(results["hybrid_qr"].outputs["approx"],
                           results["bisection_topk"].outputs["approx"],
                           atol=1e-5)

    def test_accuracy_monotone_in_k(self):
        spec = get_benchmark("imagecompression")
        program, _ = spec.compile()
        inputs = spec.generate(16, np.random.default_rng(1))

        def accuracy_for(k):
            config = program.default_config().with_entry(
                "imagecompression@main.k", SizeDecisionTree([float(k)]))
            result = program.execute(inputs, 16, config, seed=1)
            return program.accuracy_of(result.outputs, inputs)

        values = [accuracy_for(k) for k in (1, 4, 12)]
        assert values == sorted(values)

    def test_bisection_cheaper_for_rank_one(self):
        spec = get_benchmark("imagecompression")
        program, _ = spec.compile()
        inputs = spec.generate(24, np.random.default_rng(2))
        costs = {}
        for index in (0, 1):
            config = program.default_config().with_entry(
                "imagecompression@main.rule.approx",
                SizeDecisionTree([index]))
            costs[index] = program.execute(inputs, 24, config,
                                           seed=2).cost
        assert costs[1] < costs[0]


class TestPreconditionerBenchmark:
    def test_three_rules(self):
        program, _ = get_benchmark("preconditioner").compile()
        site = program.space["preconditioner@main.rule.x"]
        assert site.choice_labels == ("cg", "jacobi_pcg",
                                      "polynomial_pcg")

    def test_accuracy_monotone_in_iterations(self):
        spec = get_benchmark("preconditioner")
        program, _ = spec.compile()
        inputs = spec.generate(128, np.random.default_rng(0))

        def accuracy_for(iters):
            config = program.default_config().with_entry(
                "preconditioner@main.iterations",
                SizeDecisionTree([float(iters)]))
            result = program.execute(inputs, 128, config, seed=0)
            return program.accuracy_of(result.outputs, inputs)

        assert accuracy_for(120) > accuracy_for(5)

    def test_polynomial_beats_plain_cg_per_iteration(self):
        spec = get_benchmark("preconditioner")
        program, _ = spec.compile()
        inputs = spec.generate(256, np.random.default_rng(1))
        accuracies = {}
        for index in (0, 2):
            config = program.default_config().with_entries({
                "preconditioner@main.rule.x": SizeDecisionTree([index]),
                "preconditioner@main.iterations":
                    SizeDecisionTree([60.0]),
                "preconditioner@main.degree": SizeDecisionTree([6.0]),
            })
            result = program.execute(inputs, 256, config, seed=1)
            accuracies[index] = program.accuracy_of(result.outputs,
                                                    inputs)
        assert accuracies[2] > accuracies[0]
