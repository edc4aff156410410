"""Mixed precision as a tunable dimension.

Covers the full dtype path: the ``precision()`` DSL tunable and its
batched diagnostics, :class:`PrecisionParam` inside the parameter
space (validation, digest, GA mutation), the executor's per-instance
cast with cost scaling and trace provenance, per-bin mixed-precision
resolution, artifact JSON round-trips, and backward compatibility with
configurations that predate the precision dimension.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotuner.candidate import Candidate
from repro.autotuner.mutators import MutatorPool
from repro.compiler.compile import compile_program
from repro.config.configuration import Configuration
from repro.config.decision_tree import SizeDecisionTree
from repro.config.parameters import (
    PRECISION_DTYPES,
    ParameterSpace,
    PrecisionParam,
    SwitchParam,
    precision_dtype,
)
from repro.errors import ConfigError, LanguageError
from repro.lang import precision, rule, transform
from repro.runtime.trace import ExecutionTrace
from repro.serving import TunedArtifact
from repro.suite import all_benchmarks, get_benchmark

from tests.test_trial_replay import root_rule_cases


@pytest.fixture(scope="module")
def poisson_program():
    program, _ = get_benchmark("poisson").compile()
    return program


def scaled_program():
    @transform(inputs=("x",), outputs=("y",))
    class scaleit:
        precision = precision()

        @rule
        def double(ctx, x):
            ctx.add_cost(100.0)
            return x * 2.0

    program, _ = compile_program(scaleit, ())
    return program


# ----------------------------------------------------------------------
# The config layer: PrecisionParam and the dtype registry
# ----------------------------------------------------------------------
class TestPrecisionParam:
    def test_registry_resolves_canonical_names(self):
        assert precision_dtype("float32") == np.dtype(np.float32)
        assert precision_dtype("float64") == np.dtype(np.float64)

    def test_unknown_name_lists_valid_choices(self):
        with pytest.raises(ConfigError, match="float32, float64"):
            precision_dtype("float16")

    def test_param_rejects_non_dtype_choices(self):
        with pytest.raises(ConfigError, match="valid choices"):
            PrecisionParam(name="p", choices=("float64", "double"),
                           default="float64")

    def test_param_resolves_entry_to_dtype(self):
        param = PrecisionParam(name="p", choices=("float64", "float32"),
                               default="float64")
        assert param.dtype("float32") == np.dtype(np.float32)

    def test_digest_distinguishes_precision_from_plain_switch(self):
        """Promoting a switch to a precision changes the space digest
        even with identical name/choices/default."""
        kwargs = dict(name="p", choices=("float64", "float32"),
                      default="float64", affects_accuracy=True)
        plain = ParameterSpace([SwitchParam(**kwargs)])
        precise = ParameterSpace([PrecisionParam(**kwargs)])
        assert plain.digest() != precise.digest()

    def test_adding_the_dimension_changes_the_program_digest(self):
        mixed, _ = compile_program(
            *get_benchmark("poisson").build())
        float64_only, _ = compile_program(
            *get_benchmark("poisson").build(
                precision_choices=("float64",)))
        assert mixed.space.digest() != float64_only.space.digest()


# ----------------------------------------------------------------------
# The DSL tunable
# ----------------------------------------------------------------------
class TestPrecisionDeclaration:
    def test_named_form_rejects_unknown_dtype(self):
        with pytest.raises(LanguageError, match="bfloat16"):
            precision("p", choices=("float64", "bfloat16"))

    def test_default_must_be_a_choice(self):
        with pytest.raises(LanguageError, match="not.*one of"):
            precision("p", choices=("float32",), default="float64")

    def test_unknown_dtype_reported_with_location(self):
        """The batched diagnostics pass carries the declaration's
        source location for an unknown dtype name."""
        with pytest.raises(LanguageError) as exc_info:
            @transform(inputs=("a",), outputs=("b",))
            class badprec:
                workdtype = precision(choices=("float64", "float16"))

                @rule
                def r(ctx, a):
                    return a

        diagnostics = exc_info.value.diagnostics
        entry = next(e for e in diagnostics if "float16" in e.message)
        assert "workdtype" in entry.message
        assert "valid choices: float32, float64" in entry.message
        assert entry.location is not None
        assert entry.location.filename.endswith("test_precision.py")

    def test_second_precision_rejected(self):
        with pytest.raises(LanguageError, match="one working precision"):
            @transform(inputs=("a",), outputs=("b",))
            class twoprec:
                p1 = precision()
                p2 = precision()

                @rule
                def r(ctx, a):
                    return a

    def test_transform_tracks_its_precision_param(self, poisson_program):
        param = poisson_program.root_transform.precision_param
        assert isinstance(param, PrecisionParam)
        assert param.name == "precision"
        assert set(param.choices) <= set(PRECISION_DTYPES)

    def test_space_namespaces_precision_per_bin(self, poisson_program):
        """Every (transform, bin) instance owns an entry, so the tuner
        can mix dtypes across recursion levels."""
        names = set(poisson_program.space.names())
        assert "poisson@main.precision" in names
        for target in poisson_program.root_transform.accuracy_bins:
            assert f"poisson@{target:g}.precision" in names


# ----------------------------------------------------------------------
# The executor: cast, cost scaling, provenance
# ----------------------------------------------------------------------
class TestExecutorCast:
    def test_float64_config_leaves_inputs_alone(self):
        program = scaled_program()
        x = np.ones(8)
        result = program.execute({"x": x}, 8.0, program.default_config())
        assert result.outputs["y"].dtype == np.float64
        assert result.metrics.cost == 100.0

    def test_float32_config_casts_scales_cost_and_records(self):
        program = scaled_program()
        config = program.default_config().with_entry(
            "scaleit@main.precision", "float32")
        x = np.ones(8)
        result = program.execute({"x": x}, 8.0, config,
                                 collect_trace=True)
        assert result.outputs["y"].dtype == np.float32
        # float32 ops are charged exactly half a float64 op: the
        # scale is a power of two, so integer op counts stay exact.
        assert result.metrics.cost == 50.0
        events = result.trace.of_kind("precision")
        assert len(events) == 1
        assert events[0]["instance"] == "scaleit@main"
        assert events[0]["dtype"] == "float32"
        assert events[0]["cast"] == ("x",)

    def test_disabled_trace_builds_no_precision_event(self, monkeypatch):
        recorded: list = []
        record = ExecutionTrace.record

        def counting_record(trace, kind, depth=0, **payload):
            recorded.append(kind)
            record(trace, kind, depth, **payload)

        monkeypatch.setattr(ExecutionTrace, "record", counting_record)
        program = scaled_program()
        config = program.default_config().with_entry(
            "scaleit@main.precision", "float32")
        result = program.execute({"x": np.ones(8)}, 8.0, config)
        assert result.outputs["y"].dtype == np.float32
        assert "precision" not in recorded and len(result.trace) == 0
        result = program.execute({"x": np.ones(8)}, 8.0, config,
                                 collect_trace=True)
        [event] = result.trace.of_kind("precision")
        assert (event["dtype"], event["cast"]) == ("float32", ("x",))

    def test_float32_input_is_not_recast(self):
        program = scaled_program()
        config = program.default_config().with_entry(
            "scaleit@main.precision", "float32")
        x = np.ones(8, dtype=np.float32)
        result = program.execute({"x": x}, 8.0, config,
                                 collect_trace=True)
        assert result.outputs["y"].dtype == np.float32
        assert result.trace.of_kind("precision")[0]["cast"] == ()

    def test_per_bin_mixed_precision_resolves_per_instance(
            self, poisson_program):
        """float32 coarse levels under a float64 root: each sub-call
        re-resolves its own namespaced entry."""
        config = poisson_program.default_config()
        updates = {key: "float32" for key, _ in config.items()
                   if key.endswith(".precision")
                   and key != "poisson@main.precision"}
        config = config.with_entries(updates)
        inputs = get_benchmark("poisson").generate(
            15, np.random.default_rng(0))
        result = poisson_program.execute(inputs, 15.0, config,
                                         collect_trace=True)
        events = result.trace.of_kind("precision")
        root = [e for e in events if e["instance"] == "poisson@main"]
        coarse = [e for e in events if e["instance"] != "poisson@main"]
        assert root and all(e["dtype"] == "float64" for e in root)
        assert coarse and all(e["dtype"] == "float32" for e in coarse)
        # The root instance runs in float64, so the served output does.
        assert result.outputs["u"].dtype == np.float64

    def test_config_without_precision_entries_still_runs(
            self, poisson_program):
        """Configurations predating the precision dimension (stored
        artifacts) mean "leave dtypes alone"."""
        default = poisson_program.default_config()
        entries = {key: value for key, value in default.items()
                   if not key.endswith(".precision")}
        legacy = Configuration(entries)
        assert poisson_program.configured_dtype(legacy, 15.0) is None
        inputs = get_benchmark("poisson").generate(
            15, np.random.default_rng(0))
        result = poisson_program.execute(inputs, 15.0, legacy)
        assert result.outputs["u"].dtype == np.float64


# ----------------------------------------------------------------------
# The tuner: GA mutation over the precision dimension
# ----------------------------------------------------------------------
class TestPrecisionMutation:
    def test_pool_generates_a_precision_mutator(self, poisson_program):
        pool = MutatorPool.from_space(poisson_program.space)
        names = {m.name for m in pool.mutators}
        assert "switch:poisson@main.precision" in names

    def test_mutation_flips_the_dtype(self, poisson_program):
        pool = MutatorPool.from_space(poisson_program.space)
        mutator = next(m for m in pool.mutators
                       if m.name == "switch:poisson@main.precision")
        candidate = Candidate(poisson_program.default_config())
        config, record = mutator.mutate(
            candidate, 15.0, np.random.default_rng(0))
        assert config["poisson@main.precision"] == "float32"
        assert record.changes == (("poisson@main.precision", "float64"),)

    def test_single_choice_space_gets_no_precision_mutator(self):
        program, _ = compile_program(
            *get_benchmark("poisson").build(
                precision_choices=("float64",)))
        pool = MutatorPool.from_space(program.space)
        assert not any("precision" in m.name for m in pool.mutators)


# ----------------------------------------------------------------------
# Artifacts: the precision entry survives JSON round-trips
# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    def test_precision_entry_round_trips_through_json(
            self, poisson_program):
        from repro.runtime.executor import TunedProgram
        config = poisson_program.default_config().with_entry(
            "poisson@main.precision", "float32")
        bins = poisson_program.root_transform.accuracy_bins
        tuned = TunedProgram(poisson_program,
                             {target: config for target in bins})
        artifact = TunedArtifact.from_tuned(tuned)
        payload = json.loads(json.dumps(artifact.to_json()))
        restored = TunedArtifact.from_json(payload)
        for target in bins:
            entry = restored.bin(target).config
            assert entry["poisson@main.precision"] == "float32"
            assert poisson_program.configured_dtype(entry, 15.0) == \
                np.dtype(np.float32)
        # And the restored artifact still attaches and validates.
        reattached = restored.to_tuned(poisson_program)
        assert reattached.bin_configs.keys() == tuned.bin_configs.keys()

    def test_validate_rejects_foreign_dtype_values(self, poisson_program):
        config = poisson_program.default_config().with_entry(
            "poisson@main.precision", "float16")
        with pytest.raises(ConfigError, match="float16"):
            poisson_program.space.validate(config)


# ----------------------------------------------------------------------
# Every precision() program runs every root rule in float32
# ----------------------------------------------------------------------
def _precision_programs() -> list[str]:
    """Suite programs with a ``precision()`` tunable on any transform."""
    names = []
    for name in sorted(all_benchmarks()):
        program, _ = get_benchmark(name).compile()
        if any(transform.precision_param is not None
               for transform in program.transforms.values()):
            names.append(name)
    return names


PRECISION_PROGRAMS = _precision_programs()


class TestProgramFloat32:
    """A float32 configuration the tuner prices at half cost must run
    in float32: with every ``.precision`` entry set to float32 and each
    root rule forced in turn, every output array comes back float32.
    A kernel on the rule's path that widens to float64 fails here."""

    @pytest.mark.parametrize("name, site, index",
                             root_rule_cases(PRECISION_PROGRAMS))
    def test_every_output_array_is_float32(self, name, site, index):
        spec = get_benchmark(name)
        program, _ = spec.compile()
        config = program.default_config()
        updates = {key: "float32" for key, _ in config.items()
                   if key.endswith(".precision")}
        updates[site] = SizeDecisionTree([index])
        config = config.with_entries(updates)
        n = spec.training_sizes[1]
        inputs = spec.generate(int(n), np.random.default_rng(index))
        result = program.execute(inputs, n, config)
        arrays = {key: value for key, value in result.outputs.items()
                  if isinstance(value, np.ndarray)}
        assert arrays, f"{name} rule {index} returned no array"
        assert {key: value.dtype for key, value in arrays.items()} == \
            {key: np.dtype(np.float32) for key in arrays}

    def test_both_precision_programs_are_covered(self):
        assert {"poisson", "preconditioner"} <= set(PRECISION_PROGRAMS)
