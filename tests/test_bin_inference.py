"""Tests for compiler bin inference and mutator-pool preferences."""

import numpy as np
import pytest

from repro.autotuner.candidate import Candidate
from repro.autotuner.mutators import MutatorPool
from repro.compiler.compile import compile_program
from repro.config.parameters import ParameterSpace
from repro.errors import ConfigError, LanguageError
from repro.lang.tunables import cutoff
from repro.lang.transform import CallSite, Transform


def make_callee(bins=(0.5, 0.9)):
    def metric(outputs, inputs):
        return 1.0

    callee = Transform("callee", inputs=("x",), outputs=("y",),
                       accuracy_metric=metric, accuracy_bins=bins)
    callee.rule(outputs=("y",), inputs=("x",))(
        lambda ctx, x: (x, ctx.accuracy_target))
    return callee


class TestBinInference:
    def test_explicit_call_accuracy_becomes_bin(self):
        callee = make_callee()
        caller = Transform("caller", inputs=("x",), outputs=("z",),
                           calls=[CallSite("sub", "callee",
                                           accuracy=0.7)])

        @caller.rule(outputs=("z",), inputs=("x",))
        def rule(ctx, x):
            return ctx.call("sub", {"x": x}, n=ctx.n)["y"]

        program, info = compile_program(caller, [callee])
        assert callee.accuracy_bins == (0.5, 0.7, 0.9)
        assert "callee@0.7" in program.instances
        # The call dispatches to exactly the inferred bin.
        result = program.execute({"x": 1}, 4, program.default_config())
        assert result.outputs["z"] == (1, 0.7)

    def test_existing_bin_not_duplicated(self):
        callee = make_callee()
        caller = Transform("caller", inputs=("x",), outputs=("z",),
                           calls=[CallSite("sub", "callee",
                                           accuracy=0.9)])

        @caller.rule(outputs=("z",), inputs=("x",))
        def rule(ctx, x):
            return ctx.call("sub", {"x": x}, n=ctx.n)["y"]

        compile_program(caller, [callee])
        assert callee.accuracy_bins == (0.5, 0.9)

    def test_add_bin_keeps_direction_order(self):
        from repro.lang.metrics import AccuracyMetric
        metric = AccuracyMetric(lambda o, i: 1.0, higher_is_better=False)
        transform = Transform("t", inputs=("x",), outputs=("y",),
                              accuracy_metric=metric,
                              accuracy_bins=(1.5, 1.01))
        transform.add_accuracy_bin(1.2)
        assert transform.accuracy_bins == (1.5, 1.2, 1.01)

    def test_add_bin_requires_metric(self):
        transform = Transform("t", inputs=("x",), outputs=("y",))
        with pytest.raises(LanguageError):
            transform.add_accuracy_bin(0.5)


class TestPoolPreference:
    def space(self):
        return ParameterSpace([
            cutoff("root@main.cut", 1, 100, 10),
            cutoff("sub@0.5.cut", 1, 100, 10),
        ])

    def test_preference_biases_selection(self):
        space = self.space()
        pool = MutatorPool.from_space(space, include_meta=False)
        pool.prefer("root@main.", weight=50.0)
        candidate = Candidate(space.default_config())
        rng = np.random.default_rng(0)
        picks = [pool.random(candidate, 8, rng).param.name
                 for _ in range(200)]
        root_fraction = sum(1 for name in picks
                            if name.startswith("root@main.")) / len(picks)
        assert root_fraction > 0.9

    def test_uniform_without_preference(self):
        space = self.space()
        pool = MutatorPool.from_space(space, include_meta=False)
        candidate = Candidate(space.default_config())
        rng = np.random.default_rng(1)
        picks = [pool.random(candidate, 8, rng).param.name
                 for _ in range(300)]
        root_fraction = sum(1 for name in picks
                            if name.startswith("root@main.")) / len(picks)
        assert 0.35 < root_fraction < 0.65

    def test_invalid_weight(self):
        pool = MutatorPool.from_space(self.space(), include_meta=False)
        with pytest.raises(ConfigError):
            pool.prefer("root@main.", weight=0.0)
