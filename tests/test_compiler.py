"""Tests for the compiler: choice graph, analysis, program execution."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compiler.analysis import gather_transforms
from repro.compiler.choice_graph import schedule_groups
from repro.compiler.compile import compile_program
from repro.compiler.training_info import TrainingInfo
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import CompileError, ExecutionError
from repro.lang.targets import (example_files, load_example_targets,
                                resolve_program)
from repro.lang.transform import CallSite, Transform
from repro.lang.tunables import accuracy_variable
from repro.rng import LazyGenerator
from repro.runtime.timing import CostLimitExceeded
from repro.suite.registry import all_benchmarks, get_benchmark


def kmeans_like() -> Transform:
    transform = Transform("km", inputs=("points",), through=("centers",),
                          outputs=("labels",))
    transform.rule(outputs=("centers",), inputs=("points",),
                   name="init_a")(lambda ctx, p: p * 0)
    transform.rule(outputs=("centers",), inputs=("points",),
                   name="init_b")(lambda ctx, p: p * 0 + 1)
    transform.rule(outputs=("labels",), inputs=("points", "centers"),
                   name="solve")(lambda ctx, p, c: p + c)
    return transform


class TestChoiceGraph:
    def test_groups_and_sites(self):
        by_outputs = {g.outputs: g for g in schedule_groups(kmeans_like())}
        assert by_outputs[("centers",)].is_choice_site
        assert not by_outputs[("labels",)].is_choice_site
        assert by_outputs[("centers",)].site_name == "centers"

    def test_schedule_respects_dependencies(self):
        order = [g.outputs for g in schedule_groups(kmeans_like())]
        assert order.index(("centers",)) < order.index(("labels",))

    def test_self_dependency_allowed(self):
        transform = Transform("t", inputs=("a",), outputs=("b",))
        # Iterative rule reading its own output does not make a cycle.
        transform.rule(outputs=("b",), inputs=("a", "b"),
                       name="iterate")(lambda ctx, a, b: a)
        assert len(schedule_groups(transform)) == 1

    def test_cycle_detected(self):
        transform = Transform("t", inputs=("a",), outputs=("b", "c"))
        transform.rule(outputs=("b",), inputs=("c",),
                       name="r1")(lambda ctx, c: c)
        transform.rule(outputs=("c",), inputs=("b",),
                       name="r2")(lambda ctx, b: b)
        with pytest.raises(CompileError):
            schedule_groups(transform)

    def test_cycle_error_names_the_groups_on_it(self):
        transform = Transform("t", inputs=("a",), outputs=("b", "c", "d"))
        transform.rule(outputs=("b",), inputs=("c",),
                       name="r1")(lambda ctx, c: c)
        transform.rule(outputs=("c",), inputs=("b",),
                       name="r2")(lambda ctx, b: b)
        transform.rule(outputs=("d",), inputs=("a",),
                       name="r3")(lambda ctx, a: a)
        with pytest.raises(CompileError, match="cycle") as info:
            schedule_groups(transform)
        message = str(info.value)
        assert "'t'" in message
        assert "('b',)" in message and "('c',)" in message
        assert "('d',)" not in message


def _bins(name: str, site: str) -> dict[str, list[str]]:
    return {f"{name}@{label}": [site]
            for label in ("1", "3", "5", "7", "9", "main")}


#: Every suite program's and example declaration's schedule: per
#: instance, its choice groups' site names in execution order.
SCHEDULES = {
    "binpacking": {"binpacking@main": ["assignment+num_bins"]},
    "clustering": {"kmeans@main": ["centroids", "assignments"]},
    "helmholtz": _bins("helmholtz", "phi"),
    "imagecompression": {"imagecompression@main": ["approx"]},
    "poisson": _bins("poisson", "u"),
    "preconditioner": {"preconditioner@main": ["x"]},
    "adaptive_serving.py:make_transform": {"adaptmean@main": ["est"]},
    "quickstart.py:approxmean": {"approxmean@main": ["est"]},
    "signal_scaling.py:make_smoother": {"smoother@main": ["smooth"]},
}


def test_import_loads_no_networkx():
    """The compiler orders choice groups with the standard library's
    graphlib; numpy is the only third-party import."""
    script = ("import sys, repro.api\n"
              "assert 'networkx' not in sys.modules\n")
    source = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": source})


def test_schedules_pinned():
    programs = {name: get_benchmark(name).compile()[0]
                for name in all_benchmarks()}
    examples = Path(__file__).resolve().parent.parent / "examples"
    for path in example_files(examples):
        for label, target, extras in load_example_targets(path):
            programs[f"{Path(path).name}:{label}"] = \
                resolve_program(target, extras)
    assert {name: {prefix: [group.site_name
                            for group in instance.schedule]
                   for prefix, instance in program.instances.items()}
            for name, program in programs.items()} == SCHEDULES


class TestGatherTransforms:
    def test_unknown_call_target(self):
        transform = Transform("t", inputs=("a",), outputs=("b",),
                              calls=[CallSite("c", "missing")])
        transform.rule(outputs=("b",))(lambda ctx: 0)
        with pytest.raises(CompileError):
            gather_transforms(transform, {})

    def test_transitive_gathering(self):
        leaf = Transform("leaf", inputs=("x",), outputs=("y",))
        leaf.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        mid = Transform("mid", inputs=("x",), outputs=("y",),
                        calls=[CallSite("sub", "leaf")])
        mid.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        root = Transform("root", inputs=("x",), outputs=("y",),
                         calls=[CallSite("sub", "mid")])
        root.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        found = gather_transforms(root, {"mid": mid, "leaf": leaf})
        assert set(found) == {"root", "mid", "leaf"}


class TestCompiledProgram:
    def test_instances_per_bin(self, approxmean):
        program, info = approxmean
        assert set(program.instances) == {"approxmean@main"}

    def test_recursive_transform_gets_bin_instances(self):
        def metric(outputs, inputs):
            return 1.0

        transform = Transform(
            "rec", inputs=("x",), outputs=("y",),
            accuracy_metric=metric, accuracy_bins=(0.5, 0.9),
            calls=[CallSite("self", "rec")])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            if ctx.n > 1:
                return ctx.call("self", {"x": x}, n=ctx.n // 2)["y"] + 1
            return 0

        program, info = compile_program(transform)
        assert set(program.instances) == {"rec@main", "rec@0.5", "rec@0.9"}
        # Sub-call bin selection parameters exist for every instance.
        for prefix in program.instances:
            assert f"{prefix}.call.self.bin" in program.space

        config = program.default_config()
        result = program.execute({"x": 0}, 8, config)
        assert result.outputs["y"] == 3  # 8 -> 4 -> 2 -> 1

    def test_execute_missing_input(self, approxmean_program):
        with pytest.raises(ExecutionError):
            approxmean_program.run_instance(
                "approxmean@main", {}, 4,
                approxmean_program.default_config(),
                LazyGenerator(0, "execute", "approxmean"),
                __import__("repro.runtime.timing",
                           fromlist=["CostAccumulator"]).CostAccumulator(),
                __import__("repro.runtime.trace",
                           fromlist=["ExecutionTrace"]).ExecutionTrace(),
                0)

    def test_unknown_instance(self, approxmean_program):
        with pytest.raises(CompileError):
            approxmean_program.instance("zzz@main")

    def test_cost_limit_enforced(self, approxmean_program):
        config = approxmean_program.default_config().with_entry(
            "approxmean@main.m", SizeDecisionTree([1000.0]))
        with pytest.raises(CostLimitExceeded):
            approxmean_program.execute(
                {"xs": np.ones(2000)}, 2000, config, cost_limit=10.0)

    def test_choice_resolution_by_size(self, approxmean_program):
        program = approxmean_program
        key = "approxmean@main.rule.est"
        tree = SizeDecisionTree([0, 1], cutoffs=[100])
        config = program.default_config().with_entry(key, tree)
        xs = np.ones(50)
        small = program.execute({"xs": xs}, 50, config)
        large = program.execute({"xs": np.ones(200)}, 200, config)
        assert small.cost == 4      # sample_mean with m=4
        assert large.cost == 400    # exact_mean costs 2n

    def test_multi_output_rule_arity_checked(self):
        transform = Transform("t", inputs=("a",), outputs=("b", "c"))
        transform.rule(outputs=("b", "c"),
                       inputs=("a",))(lambda ctx, a: a)  # not a tuple
        program, _ = compile_program(transform)
        with pytest.raises(ExecutionError):
            program.execute({"a": 1}, 1, program.default_config())

    def test_trace_collection_toggle(self, approxmean_program):
        program = approxmean_program
        config = program.default_config()
        xs = np.ones(8)
        traced = program.execute({"xs": xs}, 8, config, collect_trace=True)
        untraced = program.execute({"xs": xs}, 8, config)
        assert len(traced.trace) > 0
        assert len(untraced.trace) == 0


class TestColumnGranularity:
    def build(self) -> Transform:
        transform = Transform(
            "cols", inputs=("src",), outputs=("out",),
            allocators={"out": lambda ctx, data:
                        np.zeros((2, data["src"].shape[1]))})

        @transform.rule(outputs=("out",), inputs=("src",),
                        granularity="column")
        def fill(ctx, j, out, src):
            out[:, j] = src[:, j] * 2

        return transform

    def test_column_execution(self):
        program, _ = compile_program(self.build())
        src = np.arange(6.0).reshape(2, 3)
        result = program.execute({"src": src}, 3,
                                 program.default_config())
        assert np.allclose(result.outputs["out"], src * 2)

    def test_order_switch_exists_and_backward_works(self):
        program, _ = compile_program(self.build())
        key = "cols@main.order.fill"
        assert key in program.space
        config = program.default_config().with_entry(key, "backward")
        src = np.arange(6.0).reshape(2, 3)
        result = program.execute({"src": src}, 3, config)
        assert np.allclose(result.outputs["out"], src * 2)

    def test_missing_allocator_rejected(self):
        transform = Transform("t", inputs=("src",), outputs=("out",))

        @transform.rule(outputs=("out",), inputs=("src",),
                        granularity="column")
        def fill(ctx, j, out, src):
            out[:, j] = 0

        program, _ = compile_program(transform)
        with pytest.raises(ExecutionError):
            program.execute({"src": np.zeros((2, 2))}, 2,
                            program.default_config())


class TestTrainingInfo:
    def test_xml_round_trip(self, approxmean):
        _, info = approxmean
        assert TrainingInfo.from_xml(info.to_xml()) == info

    def test_save_load(self, approxmean, tmp_path):
        _, info = approxmean
        path = tmp_path / "info.xml"
        info.save(path)
        assert TrainingInfo.load(path) == info

    def test_accuracy_variables_flagged(self, approxmean):
        _, info = approxmean
        keys = {t.key for t in info.accuracy_variables()}
        assert "approxmean@main.m" in keys
        assert "approxmean@main.reps" in keys

    def test_root_bins(self, approxmean):
        _, info = approxmean
        assert info.root_bins() == (0.5, 0.9, 0.99)

    def test_tunable_lookup(self, approxmean):
        _, info = approxmean
        assert info.tunable("approxmean@main.m").accuracy_direction == 1
        with pytest.raises(KeyError):
            info.tunable("zzz")
