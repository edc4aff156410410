"""Tests for the execution context (params, for_enough, sub-calls)."""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ExecutionError, LanguageError
from repro.lang.transform import CallSite, Transform
from repro.lang.tunables import accuracy_variable, for_enough


def build_caller_callee(callee_bins=(0.5, 0.9)):
    def metric(outputs, inputs):
        return 1.0

    callee = Transform("callee", inputs=("x",), outputs=("y",),
                       accuracy_metric=metric, accuracy_bins=callee_bins)

    @callee.rule(outputs=("y",), inputs=("x",))
    def rule(ctx, x):
        # Expose which bin instance ran through the output value.
        return (x, ctx.accuracy_target)

    caller = Transform("caller", inputs=("x",), outputs=("z",),
                       calls=[CallSite("auto", "callee"),
                              CallSite("fixed", "callee", accuracy=0.9)])

    @caller.rule(outputs=("z",), inputs=("x",))
    def call_rule(ctx, x):
        return ctx.call("auto", {"x": x}, n=ctx.n)["y"]

    return caller, callee


class TestForEnough:
    def test_count_from_config(self):
        transform = Transform("t", inputs=("x",), outputs=("y",),
                              tunables=[for_enough("loops", 50, 3)])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            return sum(1 for _ in ctx.for_enough("loops"))

        program, _ = compile_program(transform)
        result = program.execute({"x": 0}, 4, program.default_config())
        assert result.outputs["y"] == 3

    def test_early_break_allowed(self):
        transform = Transform("t", inputs=("x",), outputs=("y",),
                              tunables=[for_enough("loops", 50, 10)])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            count = 0
            for _ in ctx.for_enough("loops"):
                count += 1
                if count == 2:
                    break
            return count

        program, _ = compile_program(transform)
        assert program.execute({"x": 0}, 4,
                               program.default_config()).outputs["y"] == 2

    def test_size_dependent_counts(self):
        transform = Transform("t", inputs=("x",), outputs=("y",),
                              tunables=[for_enough("loops", 50, 1)])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            return sum(1 for _ in ctx.for_enough("loops"))

        program, _ = compile_program(transform)
        tree = SizeDecisionTree([2.0, 7.0], cutoffs=[100])
        config = program.default_config().with_entry("t@main.loops", tree)
        assert program.execute({"x": 0}, 10, config).outputs["y"] == 2
        assert program.execute({"x": 0}, 200, config).outputs["y"] == 7


class TestSubCalls:
    def test_auto_accuracy_uses_config_bin(self):
        caller, callee = build_caller_callee()
        program, _ = compile_program(caller, [callee])
        key = "caller@main.call.auto.bin"
        # Default: most accurate bin.
        result = program.execute({"x": 5}, 4, program.default_config())
        assert result.outputs["z"] == (5, 0.9)
        # Select bin 0 instead.
        config = program.default_config().with_entry(
            key, SizeDecisionTree([0]))
        result = program.execute({"x": 5}, 4, config)
        assert result.outputs["z"] == (5, 0.5)

    def test_explicit_accuracy_has_no_choice_parameter(self):
        caller, callee = build_caller_callee()
        program, _ = compile_program(caller, [callee])
        assert "caller@main.call.fixed.bin" not in program.space

    def test_undeclared_call_site_rejected(self):
        transform = Transform("t", inputs=("x",), outputs=("y",))

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            return ctx.call("nope", {"x": x}, n=1)

        program, _ = compile_program(transform)
        with pytest.raises(LanguageError):
            program.execute({"x": 0}, 1, program.default_config())

    def test_runaway_recursion_guarded(self):
        def metric(outputs, inputs):
            return 1.0

        transform = Transform("loop", inputs=("x",), outputs=("y",),
                              accuracy_metric=metric,
                              accuracy_bins=(0.5,),
                              calls=[CallSite("self", "loop")])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            # Never reduces n: unbounded recursion.
            return ctx.call("self", {"x": x}, n=ctx.n)["y"]

        program, _ = compile_program(transform)
        with pytest.raises(ExecutionError):
            program.execute({"x": 0}, 4, program.default_config())

    def test_subcall_events_traced(self):
        caller, callee = build_caller_callee()
        program, _ = compile_program(caller, [callee])
        result = program.execute({"x": 1}, 4, program.default_config(),
                                 collect_trace=True)
        subcalls = result.trace.of_kind("subcall")
        assert len(subcalls) == 1
        assert subcalls[0]["target"] == "callee"
        assert subcalls[0]["bin"] == "0.9"

    def test_fixed_accuracy_callee_uses_main_instance(self):
        fixed = Transform("fixedt", inputs=("x",), outputs=("y",))
        fixed.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x + 1)
        caller = Transform("caller2", inputs=("x",), outputs=("z",),
                           calls=[CallSite("sub", "fixedt")])

        @caller.rule(outputs=("z",), inputs=("x",))
        def rule(ctx, x):
            return ctx.call("sub", {"x": x}, n=1)["y"]

        program, _ = compile_program(caller, [fixed])
        assert "fixedt@main" in program.instances
        assert program.execute({"x": 1}, 1,
                               program.default_config()).outputs["z"] == 2


class TestContextServices:
    def test_cost_accumulates_across_calls(self):
        caller, callee = build_caller_callee()

        # Add a cost inside the callee.
        def costly(ctx, x):
            ctx.add_cost(17)
            return (x, ctx.accuracy_target)

        callee.rules[0] = type(callee.rules[0])(
            name="rule", fn=costly, inputs=("x",), outputs=("y",))
        program, _ = compile_program(caller, [callee])
        result = program.execute({"x": 0}, 2, program.default_config())
        assert result.cost == 17

    def test_invalid_choice_index_from_config(self, approxmean_program):
        program = approxmean_program
        bad = program.default_config().with_entry(
            "approxmean@main.rule.est", SizeDecisionTree([9]))
        with pytest.raises(ExecutionError):
            program.execute({"xs": np.ones(4)}, 4, bad)

    def test_negative_for_enough_rejected(self):
        transform = Transform(
            "t", inputs=("x",), outputs=("y",),
            tunables=[accuracy_variable("loops", -5, 5, 1)])

        @transform.rule(outputs=("y",), inputs=("x",))
        def rule(ctx, x):
            return sum(1 for _ in ctx.for_enough("loops"))

        program, _ = compile_program(transform)
        config = program.default_config().with_entry(
            "t@main.loops", SizeDecisionTree([-3.0]))
        with pytest.raises(ExecutionError):
            program.execute({"x": 0}, 1, config)


class TestLazyRng:
    """``ctx.rng`` is derived on first read, with the up-front stream."""

    @staticmethod
    def count_generators(monkeypatch) -> list:
        """Record the labels of every ``generator_for`` call.

        ``generator_for`` looks up ``derive_seed`` in its own module on
        each call, so patching that sees callers that imported
        ``generator_for`` by name.
        """
        import repro.rng

        calls = []
        real = repro.rng.derive_seed

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(repro.rng, "derive_seed", counting)
        return calls

    def test_binpacking_execution_derives_no_generator(self, monkeypatch):
        from repro.suite import get_benchmark

        spec = get_benchmark("binpacking")
        program, _ = spec.compile()
        inputs = spec.generate(32, np.random.default_rng(0))
        calls = self.count_generators(monkeypatch)
        program.execute(inputs, 32, program.default_config(), seed=3)
        assert calls == []

    def test_poisson_serve_derives_no_generator(self, monkeypatch):
        from repro.runtime.executor import TunedProgram
        from repro.serving import ServeRequest, ServingEngine
        from repro.suite import get_benchmark

        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        tuned = TunedProgram(program, {
            target: program.default_config()
            for target in program.root_transform.accuracy_bins})
        inputs = spec.generate(7, np.random.default_rng(0))
        calls = self.count_generators(monkeypatch)
        with ServingEngine() as engine:
            [response] = engine.serve([ServeRequest(
                program="poisson", inputs=inputs, n=7.0)], [tuned])
        assert response.ok
        assert calls == []

    def test_nested_draws_continue_one_stream(self, monkeypatch):
        from repro.rng import generator_for

        inner = Transform("inner", inputs=("x",), outputs=("y",))

        @inner.rule(outputs=("y",), inputs=("x",))
        def draw_inner(ctx, x):
            return tuple(ctx.rng.random(3))

        outer = Transform("outer", inputs=("x",), outputs=("z",),
                          calls=[CallSite("sub", "inner")])

        @outer.rule(outputs=("z",), inputs=("x",))
        def draw_outer(ctx, x):
            first = ctx.rng.random()
            middle = ctx.call("sub", {"x": x}, n=ctx.n)["y"]
            return (first, *middle, ctx.rng.random())

        program, _ = compile_program(outer, [inner])
        calls = self.count_generators(monkeypatch)
        result = program.execute({"x": 0}, 4, program.default_config(),
                                 seed=11)
        assert calls == [(11, "execute", "outer")]
        expected = generator_for(11, "execute", "outer").random(5)
        assert result.outputs["z"] == tuple(expected)
