"""The repro.api lifecycle façade.

Two contracts matter:

1. **Delegation, not divergence** — `Project.tune()` must be the
   hand-wired `compile → harness → Autotuner` path, trial for trial:
   same seed, identical frontier, identical artifact JSON (digest),
   on both serial and process backend specs.
2. **Up-front validation** — malformed `TunerSettings`, backend
   specs, and preset names fail at construction with `ConfigError`,
   not deep inside the tuning loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.api import PRESETS, Project, Service, ServicePolicy, settings_for
from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import (
    compile_program,
    compiled_from_factory,
    factory_spec,
)
from repro.config.configuration import Configuration
from repro.errors import CompileError, ConfigError
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable, switch
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ShardPlan,
    backend_from_spec,
)
from repro.runtime.backends.process import default_workers
from repro.runtime.policy import SheddingPolicy
from repro.serving import ArtifactStore, FrontDoorStats

# ----------------------------------------------------------------------
# A cheap variable-accuracy transform built by a module-level factory,
# so both the façade and the hand-wired path share ("factory", ...)
# provenance (and process workers can rebuild the program).
# ----------------------------------------------------------------------


def _apimean_metric(outputs, inputs):
    estimate = float(outputs["est"])
    truth = float(np.mean(inputs["xs"]))
    return max(0.0, 1.0 - abs(estimate - truth) / (abs(truth) + 1e-9))


def _apimean_sub(ctx, xs):
    m = min(len(xs), int(ctx.param("m")))
    indices = ctx.rng.integers(0, len(xs), size=m)
    ctx.add_cost(m)
    return float(np.mean(xs[indices]))


def _apimean_full(ctx, xs):
    ctx.add_cost(2 * len(xs))
    return float(np.mean(xs))


def make_apimean() -> Transform:
    transform = Transform(
        "apimean", inputs=("xs",), outputs=("est",),
        accuracy_metric=_apimean_metric, accuracy_bins=(0.5, 0.9),
        tunables=[accuracy_variable("m", lo=1, hi=100000, default=4,
                                    direction=+1)])
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="sub")(_apimean_sub)
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="full")(_apimean_full)
    return transform


def apimean_inputs(n, rng):
    return {"xs": rng.normal(10.0, 1.0, size=max(2, int(n)))}


def _unit_metric(outputs, inputs):
    return 1.0


def _pair_mean(ctx, xs):
    low, high = ctx.param("pair")
    ctx.add_cost(low * len(xs) + high)
    return float(np.mean(xs))


def make_pairs() -> Transform:
    """A switch whose choices are lists: its configs cannot be hashed."""
    transform = Transform(
        "pairs", inputs=("xs",), outputs=("est",),
        accuracy_metric=_unit_metric, accuracy_bins=(0.5,),
        tunables=[switch("pair", choices=([1, 2], [3, 4]))])
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="mean")(_pair_mean)
    return transform


QUICK = dict(input_sizes=(4.0, 8.0), rounds_per_size=1,
             mutation_attempts=3, min_trials=2, max_trials=3,
             initial_random=1, guided_max_evaluations=6,
             accuracy_confidence=None, seed=5)

BASE_SEED = 3


def artifact_digest(artifact) -> str:
    payload = json.dumps(artifact.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Façade / hand-wired equivalence
# ----------------------------------------------------------------------
class TestFacadeEquivalence:
    @pytest.mark.parametrize("spec, backend_factory", [
        ("serial", SerialBackend),
        ("process:2", lambda: ProcessPoolBackend(max_workers=2)),
    ])
    def test_tune_matches_hand_wired_path(self, spec, backend_factory):
        """Same seed through Project.tune() and the hand-wired
        Autotuner yields identical frontiers and artifact digests."""
        program, _ = compiled_from_factory(factory_spec(make_apimean))
        with ProgramTestHarness(program, apimean_inputs,
                                base_seed=BASE_SEED,
                                backend=backend_factory()) as harness:
            manual = Autotuner(program, harness,
                               TunerSettings(**QUICK)).tune()

        with Project.from_transform(make_apimean, apimean_inputs,
                                    backend=spec,
                                    base_seed=BASE_SEED) as project:
            facade = project.tune(**QUICK)

        assert facade.frontier() == manual.frontier()
        assert facade.result.trials_run == manual.trials_run
        assert facade.unmet_bins == manual.unmet_bins
        assert artifact_digest(facade.artifact()) == \
            artifact_digest(manual.to_artifact())

    def test_run_matches_tuned_program(self):
        with Project.from_transform(make_apimean, apimean_inputs,
                                    base_seed=BASE_SEED) as project:
            handle = project.tune(**QUICK)
        tuned = handle.tuned_program()
        xs = {"xs": np.random.default_rng(0).normal(10.0, 1.0, size=64)}
        direct = tuned.run(xs, 64, accuracy=0.9, seed=4)
        via_handle = handle.run(xs, 64, accuracy=0.9, seed=4)
        assert via_handle.outputs == direct.outputs
        assert via_handle.bin_target == direct.bin_target


# ----------------------------------------------------------------------
# Project construction & ownership
# ----------------------------------------------------------------------
class TestProject:
    def test_benchmark_sizes_resolve_within_bounds(self):
        with Project.from_benchmark("poisson") as project:
            settings = project.settings("smoke", max_input_size=15)
            # Poisson grids are 2^k - 1: the benchmark's own sizes are
            # used, bounded by the preset's max_input_size.
            assert settings.sizes() == (3.0, 7.0, 15.0)

    def test_explicit_sizes_win_over_benchmark(self):
        with Project.from_benchmark("poisson") as project:
            settings = project.settings("smoke", input_sizes=(7.0,))
            assert settings.sizes() == (7.0,)

    def test_bounds_excluding_every_size_raise(self):
        with Project.from_benchmark("poisson") as project:
            with pytest.raises(ConfigError, match="training size"):
                project.settings(max_input_size=2.0)

    def test_tunes_a_switch_over_unhashable_values(self):
        with Project.from_transform(make_pairs, apimean_inputs,
                                    base_seed=BASE_SEED) as project:
            handle = project.tune(**QUICK)
            executed = project.trials_executed
        assert handle.frontier()
        # Equal configs in one batch still run once, keyed by digest.
        assert 0 < executed < handle.trials_run

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_invalid_noise_raises(self, noise):
        with pytest.raises(ValueError, match="noise"):
            Project.from_transform(make_apimean, apimean_inputs,
                                   noise=noise)

    @pytest.mark.parametrize("noise, serialises", [(0.0, False),
                                                   (0.1, True)])
    def test_only_noise_reads_config_digests_on_binpacking(
            self, monkeypatch, noise, serialises):
        """Bin packing is not batchable, so without noise nothing reads
        a trial's config digest and no configuration is serialised."""
        dumps = Configuration.dumps
        calls = []

        def counting_dumps(config):
            calls.append(config)
            return dumps(config)

        monkeypatch.setattr(Configuration, "dumps", counting_dumps)
        with Project.from_benchmark("binpacking", base_seed=5,
                                    noise=noise) as project:
            project.tune(input_sizes=(8.0, 32.0), rounds_per_size=1,
                         mutation_attempts=6, min_trials=3, max_trials=6,
                         accuracy_confidence=None, seed=5)
        assert bool(calls) == serialises

    def test_close_shuts_backend_and_is_idempotent(self):
        project = Project.from_transform(make_apimean, apimean_inputs,
                                         backend="process:2")
        _ = project.harness
        project.close()
        project.close()
        with pytest.raises(ConfigError, match="closed"):
            _ = project.harness

    def test_owned_cache_persists_on_close(self, tmp_path):
        cache_path = tmp_path / "trials.json"
        with Project.from_transform(make_apimean, apimean_inputs,
                                    cache=cache_path,
                                    base_seed=BASE_SEED) as project:
            project.tune(**QUICK)
            executed = project.trials_executed
        assert executed > 0
        assert cache_path.exists()
        with Project.from_transform(make_apimean, apimean_inputs,
                                    cache=cache_path,
                                    base_seed=BASE_SEED) as warm:
            warm.tune(**QUICK)
            assert warm.trials_executed == 0

    def test_explicit_settings_log_wins_over_project_log(self):
        ambient, explicit = [], []
        with Project.from_transform(make_apimean, apimean_inputs,
                                    base_seed=BASE_SEED,
                                    log=ambient.append) as project:
            project.tune(TunerSettings(**QUICK,
                                       log=explicit.append))
            assert explicit and not ambient
            project.tune(**QUICK)   # no explicit log: ambient wins
            assert ambient

    def test_factory_gives_provenance(self):
        with Project.from_transform(make_apimean,
                                    apimean_inputs) as project:
            assert project.program.provenance == \
                ("factory", f"{make_apimean.__module__}:make_apimean")

    def test_project_tunes_on_cost_only(self):
        with pytest.raises(TypeError, match="objective"):
            Project.from_transform(make_apimean, apimean_inputs,
                                   objective="cost")
        with Project.from_transform(make_apimean,
                                    apimean_inputs) as project:
            assert project.settings(**QUICK).objective == "cost"
            with pytest.raises(ConfigError, match="only objective"):
                project.tune(objective="time", **QUICK)
            assert project.trials_run == 0

    def test_non_importable_factory_rejected(self):
        with pytest.raises(CompileError, match="module-level"):
            factory_spec(lambda: None)

    def test_rebound_factory_name_rejected(self, monkeypatch):
        import sys
        module = sys.modules[make_apimean.__module__]
        monkeypatch.setattr(module, "make_apimean", make_apimean)
        alias = make_apimean
        monkeypatch.setattr(module, "make_apimean", lambda: None)
        with pytest.raises(CompileError, match="resolve back"):
            factory_spec(alias)

    def test_missing_generator_rejected(self):
        with pytest.raises(ConfigError, match="training-input"):
            Project.from_transform(make_apimean, None)


# ----------------------------------------------------------------------
# Backend spec strings (the one shared parser)
# ----------------------------------------------------------------------
class TestBackendSpec:
    @pytest.mark.parametrize("spec, kind, workers", [
        ("serial", SerialBackend, None),
        ("process", ProcessPoolBackend, None),
        ("process:4", ProcessPoolBackend, 4),
        ("processes:3", ProcessPoolBackend, 3),
    ])
    def test_specs_parse(self, spec, kind, workers):
        backend = backend_from_spec(spec)
        assert isinstance(backend, kind)
        if workers is not None:
            assert backend.max_workers == workers
        elif kind is ProcessPoolBackend:
            assert backend.max_workers == default_workers()

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert backend_from_spec(backend) is backend

    @pytest.mark.parametrize("spec, match", [
        ("warp:4", "unknown execution backend"),
        ("threads:2", "unknown execution backend"),
        ("serial:2", "no worker count"),
        ("process:many", "not an integer"),
        ("process:0", ">= 1"),
        ("process:", "without a worker count"),
        ("serial:", "without a worker count"),
    ])
    def test_bad_specs_raise_config_error(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            backend_from_spec(spec)

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="spec"):
            backend_from_spec(7)

    # --- the async:<shards>x<workers> serving form -------------------
    def test_async_spec_requires_opt_in(self):
        # Trial-execution callers must not receive a ShardPlan where
        # an ExecutionBackend is expected.
        with pytest.raises(ConfigError, match="serving front door"):
            backend_from_spec("async:4x2")

    def test_async_spec_parses_with_opt_in(self):
        plan = backend_from_spec("async:4x2", allow_sharded=True)
        assert plan == ShardPlan(shards=4, workers=2)
        assert plan.shard_backend_spec == "process:2"
        assert str(plan) == "async:4x2"

    @pytest.mark.parametrize("spec, match", [
        ("async", "<shards>x<workers>"),
        ("async:", "<shards>x<workers>"),
        ("async:4", "<shards>x<workers>"),
        ("async:x2", "<shards>x<workers>"),
        ("async:axb", "integers"),
        ("async:0x2", ">= 1"),
        ("async:2x0", ">= 1"),
    ])
    def test_bad_async_specs_raise_config_error(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            backend_from_spec(spec, allow_sharded=True)

    def test_unknown_spec_error_lists_async_form(self):
        with pytest.raises(ConfigError,
                           match="async:<shards>x<workers>"):
            backend_from_spec("warp:4")


# ----------------------------------------------------------------------
# Settings presets
# ----------------------------------------------------------------------
class TestPresets:
    def test_known_presets_resolve(self):
        for name in PRESETS:
            assert isinstance(settings_for(name), TunerSettings)

    def test_overrides_win(self):
        settings = settings_for("smoke", max_trials=9)
        assert settings.max_trials == 9
        assert settings.rounds_per_size == \
            PRESETS["smoke"]["rounds_per_size"]

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="unknown settings preset"):
            settings_for("warp-speed")

    def test_settings_instance_passes_through(self):
        settings = TunerSettings(seed=11)
        assert settings_for(settings) is settings
        assert settings_for(settings, seed=12).seed == 12


# ----------------------------------------------------------------------
# TunerSettings construction-time validation
# ----------------------------------------------------------------------
class TestSettingsValidation:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(input_sizes=()), "empty"),
        (dict(input_sizes=(8.0, 4.0)), "strictly increasing"),
        (dict(input_sizes=(4.0, 4.0)), "strictly increasing"),
        (dict(input_sizes=(0.0, 4.0)), "positive"),
        (dict(min_input_size=128.0, max_input_size=64.0),
         "exceeds max_input_size"),
        (dict(min_input_size=0.0), "positive"),
        (dict(min_input_size=-2.0), "positive"),
        (dict(objective="energy"), "objective"),
        (dict(objective="time"), "'cost'.*only objective"),
        (dict(require_targets="explode"), "require_targets"),
        (dict(rounds_per_size=-1), "rounds_per_size"),
        (dict(min_trials=0), "min_trials"),
        (dict(min_trials=5, max_trials=4), "max_trials"),
        (dict(mutation_attempts=-1), "mutation_attempts"),
        (dict(k_per_bin=0), "k_per_bin"),
        (dict(initial_random=-1), "initial_random"),
        (dict(accuracy_confidence=1.0), "accuracy_confidence"),
        (dict(accuracy_confidence=0.0), "accuracy_confidence"),
        (dict(guided_max_evaluations=0), "guided_max_evaluations"),
        (dict(max_input_size=math.nan), "finite"),
        (dict(max_input_size=math.inf), "finite"),
        (dict(min_input_size=math.nan), "finite"),
        (dict(min_input_size=-math.inf), "finite"),
        (dict(input_sizes=(8.0, math.inf)), "finite"),
        (dict(input_sizes=(math.nan,)), "finite"),
        (dict(guided_factor=math.nan), "guided_factor"),
        (dict(guided_factor=math.inf), "guided_factor"),
        (dict(guided_factor=0.5), "guided_factor"),
        (dict(guided_factor=1.0), "guided_factor"),
        (dict(guided_factor=-2.0), "guided_factor"),
    ])
    def test_invalid_settings_raise_config_error(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            TunerSettings(**kwargs)

    def test_objective_field_and_digest_kept(self):
        # ``objective`` stays a field: every existing settings value
        # keeps its digest, and callers that pin it by name still work.
        assert {f.name for f in dataclasses.fields(TunerSettings)} == {
            "accuracy_confidence", "copy_parent_results", "guided_factor",
            "guided_max_evaluations", "include_meta_mutators",
            "initial_random", "input_sizes", "k_per_bin",
            "keep_most_accurate", "log", "lognormal_scaling",
            "max_input_size", "max_tree_levels", "max_trials",
            "min_input_size", "min_trials", "mutation_attempts",
            "objective", "prefer_root_mutators", "require_targets",
            "root_mutator_weight", "rounds_per_size", "seed",
            "use_guided_mutation"}
        assert TunerSettings().digest() == "6f93b3cb81a096cf"
        assert TunerSettings(objective="cost").digest() == \
            TunerSettings().digest()

    def test_valid_edge_cases_pass(self):
        # Zero rounds (test-only tuning) and None confidence are legal.
        TunerSettings(rounds_per_size=0, accuracy_confidence=None)
        TunerSettings(input_sizes=(7.0,))
        TunerSettings(min_input_size=64.0, max_input_size=64.0)


# ----------------------------------------------------------------------
# Harness context manager
# ----------------------------------------------------------------------
class TestHarnessContextManager:
    def test_with_block_closes_backend(self):
        program, _ = compile_program(make_apimean())
        backend = ProcessPoolBackend(max_workers=2)
        with ProgramTestHarness(program, apimean_inputs,
                                backend=backend) as harness:
            assert harness.backend is backend
            # Force the pool into existence so close() has work to do.
            backend._ensure_pool(program)
        assert not backend._pools  # close() ran


# ----------------------------------------------------------------------
# Service assembly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployed_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    with Project.from_transform(make_apimean, apimean_inputs,
                                base_seed=BASE_SEED) as project:
        handle = project.tune(**QUICK)
        deployment = handle.deploy(root)
    return deployment.store, handle


class TestService:
    def test_load_serves_and_matches_single_call(self, deployed_store):
        store, handle = deployed_store
        tuned = handle.tuned_program()
        rng = np.random.default_rng(1)
        with Service.load(store, program="apimean") as service:
            inputs = {"xs": rng.normal(10.0, 1.0, size=32)}
            response = service.serve_one(service.request(
                inputs, 32, accuracy=0.9, seed=6))
            assert response.ok
            direct = tuned.run(inputs, 32, accuracy=0.9, seed=6)
            assert response.outputs == direct.outputs
            assert response.bin_target == direct.bin_target

    def test_every_backend_serves_through_a_front_door(self,
                                                      deployed_store):
        store, _ = deployed_store
        backend = SerialBackend()
        with Service.load(store, program="apimean",
                          policy=ServicePolicy(backend=backend)) as service:
            assert service.frontdoor.shards == 1
            assert service.frontdoor.shard_engines[0].backend is backend
            response = service.serve_one(service.request(
                {"xs": np.ones(8)}, 8, accuracy=0.9))
            assert response.ok
            stats = service.stats()
            assert isinstance(stats, FrontDoorStats)
            assert stats.requests == stats.completed == 1

    def test_load_defaults_to_every_stored_program(self, deployed_store):
        store, _ = deployed_store
        with Service.load(store) as service:
            assert service.programs == ("apimean",)

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="no programs"):
            Service.load(tmp_path / "empty")

    def test_tag_only_store_names_the_tag_mismatch(self, tmp_path,
                                                   deployed_store):
        _, handle = deployed_store
        deployment = handle.deploy(tmp_path / "canary-only",
                                   tag="canary")
        with pytest.raises(ConfigError, match="tag 'default'"):
            Service.load(deployment.store)
        # Naming the tag in the policy makes the same store loadable.
        with Service.load(deployment.store,
                          policy=ServicePolicy(tag="canary")) as svc:
            assert svc.programs == ("apimean",)

    def test_request_needs_program_when_ambiguous(self, deployed_store):
        store, handle = deployed_store
        with Service.load(store) as service:
            request = service.request({"xs": np.zeros(4)}, 4)
            assert request.program == "apimean"
            # A second hosted program makes the default ambiguous.
            service.frontdoor.register("other", handle.tuned_program())
            with pytest.raises(ConfigError, match="name the program"):
                service.request({"xs": np.zeros(4)}, 4)
            still_fine = service.request({"xs": np.zeros(4)}, 4,
                                         program="apimean")
            assert still_fine.program == "apimean"

    def test_retune_harness_seed_and_budget(self, tmp_path):
        """Retune harnesses run at base seed 11, and without a trial
        budget when the program has no benchmark spec (the spec's
        budget is checked in the benchmark-sizes test below)."""
        service = Service(ArtifactStore(tmp_path), frontdoor=None,
                          policy=ServicePolicy(retune="smoke"),
                          training_inputs=apimean_inputs)
        program, _ = compiled_from_factory(factory_spec(make_apimean))
        with service._harness_factory("apimean", program) as harness:
            assert (harness.base_seed, harness.cost_limit) == (11, None)
            assert harness.input_generator is apimean_inputs
            assert isinstance(harness.backend, SerialBackend)

    def test_deploy_retain_needs_a_path_created_store(
            self, deployed_store):
        store, handle = deployed_store
        with pytest.raises(ConfigError, match="retain"):
            handle.deploy(store, retain=5)

    def test_adaptive_needs_retune_settings(self, deployed_store):
        store, _ = deployed_store
        with Service.load(store, program="apimean") as service:
            with pytest.raises(ConfigError, match="retune"):
                service.poll()

    def test_adaptive_controller_assembles_from_policy(
            self, deployed_store):
        store, handle = deployed_store
        policy = ServicePolicy(retune=settings_for("smoke", seed=21),
                               slice_trials=10)
        with Service.load(store, program="apimean", policy=policy,
                          training_inputs=apimean_inputs) as service:
            assert service.poll() == []       # no traffic, no drift
            assert service.check_drift() == {}
            assert service.events == []
            controller = service.controller
            assert controller.slice_trials == 10
            resolved = controller.settings(
                "apimean", handle.result.program)
            assert resolved.seed == 21

    def test_retune_settings_respect_benchmark_sizes(self, tmp_path):
        """A preset-based retune of a size-constrained benchmark must
        train on the benchmark's own sizes, not the generic sweep
        (which would crash poisson's generator on n=2)."""
        from repro.suite import get_benchmark
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        service = Service(ArtifactStore(tmp_path), frontdoor=None,
                          policy=ServicePolicy(retune="smoke"))
        settings = service._settings_factory("poisson", program)
        assert settings.input_sizes == (3.0, 7.0, 15.0)
        with service._harness_factory("poisson", program) as harness:
            # The retune harness inherits the spec's per-trial budget.
            assert harness.cost_limit == spec.cost_limit

    def test_duplicate_program_names_collapse(self, deployed_store):
        store, handle = deployed_store
        with Service.load(store, program="apimean",
                          programs=("apimean",),
                          compiled=handle.result.program) as service:
            assert service.programs == ("apimean",)

    def test_deploy_reports_the_version_it_wrote(self, tmp_path,
                                                 deployed_store):
        _, handle = deployed_store
        first = handle.deploy(tmp_path / "store")
        second = handle.deploy(first.store)
        assert (first.version, second.version) == (1, 2)
        assert first.store.latest_version("apimean") == 2
        unserved = handle.deploy(first.store, set_latest=False)
        assert unserved.version == 3
        assert first.store.latest_version("apimean") == 2
        assert ArtifactStore.parse_version(unserved.path) == 3

    def test_parse_version_rejects_non_version_paths(self):
        from repro.errors import ArtifactError
        with pytest.raises(ArtifactError, match="version-file"):
            ArtifactStore.parse_version("default.json")

    def test_discovery_skips_programs_without_the_tag(
            self, tmp_path, deployed_store):
        _, handle = deployed_store
        deployment = handle.deploy(tmp_path / "mixed")
        handle.deploy(deployment.store, tag="canary")
        # Fake a second program stored only under the canary tag.
        import shutil
        source = str(tmp_path / "mixed" / "apimean")
        shutil.copytree(source, str(tmp_path / "mixed" / "ghost"))
        import os
        os.unlink(str(tmp_path / "mixed" / "ghost" / "default.json"))
        shutil.rmtree(str(tmp_path / "mixed" / "ghost" / ".history" /
                          "default"))
        with Service.load(deployment.store) as service:
            assert service.programs == ("apimean",)

    def test_failing_settings_resolution_never_builds_a_harness(
            self, deployed_store, monkeypatch):
        """A raising settings resolver must not leak a fresh harness
        (and backend) on every poll tick (controller launch order)."""
        from repro.serving import ServingTelemetry
        from repro.serving.controller import RetuneController
        from repro.serving.telemetry import DriftEvent
        store, handle = deployed_store
        tuned = handle.tuned_program()

        class StubDoor:
            telemetry = ServingTelemetry()
            programs = ("apimean",)

            def program_for(self, name):
                return tuned

        class ClosingBackend(SerialBackend):
            def __init__(self):
                super().__init__()
                self.closed = False

            def close(self):
                self.closed = True

        built = []

        def harness_factory(name, compiled):
            harness = ProgramTestHarness(compiled, apimean_inputs,
                                         backend=ClosingBackend())
            built.append(harness)
            return harness

        def raising_settings(name, compiled):
            raise ConfigError("no sizes fit")

        controller = RetuneController(
            StubDoor(), store, harness_factory=harness_factory,
            settings=raising_settings)
        controller.check_drift = lambda: {"apimean": [DriftEvent(
            program="apimean", target=0.9, observed=None,
            stored=None)]}
        with pytest.raises(ConfigError, match="no sizes"):
            controller.poll()
        assert built == []   # settings resolved before harness build

        # And when construction fails *after* the harness exists, the
        # harness's backend is closed.
        def raising_session(self, **kwargs):
            raise ConfigError("session refused")

        monkeypatch.setattr(Autotuner, "session", raising_session)
        controller.settings = TunerSettings(**QUICK)
        with pytest.raises(ConfigError, match="session refused"):
            controller.poll()
        assert len(built) == 1
        assert built[0].backend.closed

    def test_telemetry_snapshot_reflects_traffic(self, deployed_store):
        store, _ = deployed_store
        rng = np.random.default_rng(2)
        with Service.load(store, program="apimean") as service:
            service.serve([service.request(
                {"xs": rng.normal(10.0, 1.0, size=16)}, 16,
                accuracy=0.9, seed=i) for i in range(5)])
            snap = service.snapshot(0.9)
            assert snap.served == 5
            assert snap.samples == 5


# ----------------------------------------------------------------------
# Sharded service (async backend -> FrontDoor tier)
# ----------------------------------------------------------------------
class TestShardedService:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(queue_limit=0), "queue_limit"),
        (dict(deadline=0.0), "deadline"),
        (dict(queue_limit=-1), "queue_limit"),
        (dict(shadow_fraction=float("nan")), "shadow_fraction"),
        (dict(batch_size=0), "batch_size"),
        (dict(telemetry_window=0), "telemetry_window"),
        (dict(slice_trials=0), "slice_trials"),
        (dict(shadow_fraction=0.0), "shadow_fraction"),
        (dict(shadow_fraction=1.5), "shadow_fraction"),
        (dict(deadline=float("nan")), "deadline"),
    ])
    def test_policy_validation(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ServicePolicy(**kwargs)

    def test_shard_plan_helper(self):
        assert ServicePolicy(backend="async:2x1").shard_plan() \
            == ShardPlan(shards=2, workers=1)
        assert ServicePolicy().shard_plan() is None
        assert ServicePolicy(backend="process:2").shard_plan() is None

    def test_shedding_policy_uses_deadline_as_p95_budget(self):
        policy = ServicePolicy(deadline=0.5)
        assert policy.shedding_policy() == SheddingPolicy(p95_budget=0.5)
        assert ServicePolicy(shedding=False).shedding_policy() is None

    def test_async_backend_builds_front_door(self, deployed_store):
        store, handle = deployed_store
        tuned = handle.tuned_program()
        rng = np.random.default_rng(3)
        policy = ServicePolicy(backend="async:2x1",
                               shard_backend="serial")
        with Service.load(store, program="apimean",
                          policy=policy) as service:
            assert not hasattr(service, "engine")
            assert service.frontdoor.shards == 2
            assert service.programs == ("apimean",)
            inputs = {"xs": rng.normal(10.0, 1.0, size=32)}
            response = service.serve_one(service.request(
                inputs, 32, accuracy=0.9, seed=6))
            assert response.ok
            direct = tuned.run(inputs, 32, accuracy=0.9, seed=6)
            assert response.outputs == direct.outputs
            assert response.bin_target == direct.bin_target
            stats = service.stats()
            assert isinstance(stats, FrontDoorStats)
            assert stats.submitted == stats.completed == 1

    def test_adaptive_loop_runs_behind_shards(self, deployed_store):
        store, _ = deployed_store
        policy = ServicePolicy(backend="async:2x1",
                               shard_backend="serial", retune="smoke")
        with Service.load(store, program="apimean", policy=policy,
                          training_inputs=apimean_inputs) as service:
            assert service.poll() == []       # no traffic, no drift
            assert service.controller.frontdoor is service.frontdoor
