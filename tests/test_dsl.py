"""The class-based DSL: lowering, batched diagnostics, and the
DSL-vs-imperative equivalence guarantees.

The two contracts that matter:

1. **Lowering is total** — a DSL-declared benchmark compiles to an
   *identical* program as its imperatively built twin: same
   config-space digest, same instances, same training info, and the
   same tuned frontier for a fixed seed.
2. **Errors batch** — a broken declaration reports every mistake in
   one ``Diagnostics`` pass, each with a source location, instead of
   failing fast on the first.
"""

import numpy as np
import pytest

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import compile_program
from repro.errors import CompileError, ConfigError, LanguageError
from repro.lang import (
    Transform,
    accuracy_metric,
    accuracy_variable,
    allocator,
    call,
    check,
    cutoff,
    describe,
    for_enough,
    precision,
    rule,
    switch,
    transform,
)
from repro.lang.metrics import AccuracyMetric
from repro.lang.transform import CallSite
from repro.runtime.backends import backend_from_spec


def _unit_metric(outputs, inputs):
    return 1.0


def make_dsl_pair():
    """A small DSL transform exercising every declaration form."""

    @transform(inputs=("xs",), through=("mid",), outputs=("out",),
               accuracy_bins=(0.5, 0.9))
    class pipelineish:
        iters = for_enough(max_iters=9, default=3)
        level = accuracy_variable(lo=0, hi=4, default=1, direction=+1)
        block = cutoff(lo=1, hi=64, default=8)
        mode = switch(choices=("a", "b"), default="a")

        @accuracy_metric
        def unit(outputs, inputs):
            return 1.0

        @rule(outputs=("mid",))
        def stage_one(ctx, xs):
            return xs * 1.0

        @rule(outputs=("mid",))
        def stage_one_alt(ctx, xs):
            return xs * 1.0

        @rule
        def stage_two(ctx, mid):
            return mid + float(ctx.param("level"))

    return pipelineish


class TestLowering:
    def test_returns_a_transform(self):
        lowered = make_dsl_pair()
        assert isinstance(lowered, Transform)
        assert lowered.name == "pipelineish"

    def test_explicit_name_overrides_class_name(self):
        @transform(name="renamed", inputs=("a",), outputs=("b",))
        class whatever:
            @rule
            def r(ctx, a):
                return a

        assert whatever.name == "renamed"

    def test_tunable_names_inferred_from_attributes(self):
        lowered = make_dsl_pair()
        assert [t.name for t in lowered.tunables] == [
            "iters", "level", "block", "mode"]
        by_name = {t.name: t for t in lowered.tunables}
        assert by_name["iters"].is_accuracy_variable
        assert by_name["iters"].hi == 9
        assert by_name["level"].accuracy_direction == +1
        assert by_name["mode"].choices == ("a", "b")

    def test_rule_names_and_inputs_inferred(self):
        lowered = make_dsl_pair()
        rules = {r.name: r for r in lowered.rules}
        assert set(rules) == {"stage_one", "stage_one_alt", "stage_two"}
        assert rules["stage_one"].inputs == ("xs",)
        assert rules["stage_two"].inputs == ("mid",)
        # outputs default to the transform's declared outputs
        assert rules["stage_two"].outputs == ("out",)
        assert rules["stage_one"].outputs == ("mid",)

    def test_metric_from_decorated_method(self):
        lowered = make_dsl_pair()
        assert isinstance(lowered.accuracy_metric, AccuracyMetric)
        assert lowered.accuracy_metric.name == "unit"
        assert lowered.accuracy_bins == (0.5, 0.9)

    def test_metric_wrapper_form_keeps_name_and_direction(self):
        @transform(inputs=("a",), outputs=("b",), accuracy_bins=(1.5, 1.1))
        class lowbetter:
            metric = accuracy_metric(_unit_metric, name="ratio",
                                     higher_is_better=False)

            @rule
            def r(ctx, a):
                return a

        assert lowbetter.accuracy_metric.name == "ratio"
        assert not lowbetter.accuracy_metric.higher_is_better
        # bins sorted least -> most accurate under the lower-is-better
        # metric
        assert lowbetter.accuracy_bins == (1.5, 1.1)

    def test_call_site_names_inferred(self):
        @transform(inputs=("a",), outputs=("b",))
        class caller:
            sub = call("callee")
            pinned = call("callee", accuracy=0.9)

            @rule
            def r(ctx, a):
                return a

        assert caller.call_sites["sub"] == CallSite("sub", "callee", None)
        assert caller.call_sites["pinned"].accuracy == 0.9

    def test_rule_wrapper_form_forwards_options(self):
        """rule(fn, ...) as a plain wrapper keeps outputs/granularity
        (the adaptive_serving style over pre-existing functions)."""

        def seed_column(ctx, j, out, points):
            out[:, j] = 0.0

        def solve(ctx, points, centers):
            return np.zeros(len(points))

        @transform(inputs=("points",), through=("centers",),
                   outputs=("labels",),
                   allocators={"centers": lambda ctx, data:
                               np.empty((2, 2))})
        class wrapped:
            init = rule(seed_column, outputs=("centers",),
                        granularity="column")
            finish = rule(solve, name="renamed_solve")

        init = next(r for r in wrapped.rules if r.name == "init")
        assert init.granularity == "column"
        assert init.outputs == ("centers",)
        assert init.inputs == ("points",)
        assert any(r.name == "renamed_solve" for r in wrapped.rules)

    def test_column_rule_with_allocator_method(self):
        @transform(inputs=("points",), through=("centers",),
                   outputs=("labels",))
        class colrule:
            @allocator("centers")
            def centers(ctx, data):
                return np.empty((2, 3))

            @rule(outputs=("centers",), granularity="column")
            def init(ctx, j, out, points):
                out[:, j] = j

            @rule
            def solve(ctx, points, centers):
                return np.zeros(len(points))

        assert "centers" in colrule.allocators
        init = next(r for r in colrule.rules if r.name == "init")
        assert init.granularity == "column"
        assert init.inputs == ("points",)
        program, _ = compile_program(colrule)
        result = program.execute({"points": np.zeros(4)}, 4,
                                 program.default_config())
        assert result.outputs["labels"].shape == (4,)

    def test_rules_can_be_added_after_lowering(self):
        """The lowered Transform stays the imperative escape hatch
        (the bin-packing benchmark registers its rules in a loop)."""

        @transform(inputs=("a",), outputs=("b",))
        class openended:
            pass

        openended.rule(outputs=("b",), inputs=("a",),
                       name="late")(lambda ctx, a: a)
        program, _ = compile_program(openended)
        assert [r.name for r in openended.rules] == ["late"]

    def test_named_tunable_attribute_must_match(self):
        with pytest.raises(LanguageError, match="omit the name"):
            @transform(inputs=("a",), outputs=("b",))
            class mismatched:
                foo = accuracy_variable("bar", 1, 2)

                @rule
                def r(ctx, a):
                    return a

    def test_matching_named_tunable_attribute_accepted(self):
        @transform(inputs=("a",), outputs=("b",))
        class matched:
            foo = accuracy_variable("foo", 1, 2)

            @rule
            def r(ctx, a):
                return a

        assert matched.tunables[0].name == "foo"

    def test_plain_helpers_ignored(self):
        @transform(inputs=("a",), outputs=("b",))
        class with_helpers:
            CONSTANT = 42

            def helper(x):
                return x + 1

            @rule
            def r(ctx, a):
                return with_helpers.helper(a)

        assert [r.name for r in with_helpers.rules] == ["r"]
        assert len(with_helpers.tunables) == 0


class TestDiagnosticsBatching:
    def test_broken_declaration_reports_every_error_with_locations(self):
        """Acceptance: >= 2 distinct errors in one pass, each carrying
        a source location."""
        with pytest.raises(LanguageError) as exc_info:
            @transform(inputs=("a",), outputs=("b",))
            class broken:
                bad_domain = accuracy_variable(lo=5, hi=1)

                @rule
                def r1(ctx, nonexistent):
                    return 0

                @rule(granularity="column")
                def r2(ctx, a):
                    return 0

        diagnostics = exc_info.value.diagnostics
        assert len(diagnostics) >= 2
        messages = {e.message for e in diagnostics}
        assert len(messages) >= 2
        located = [e for e in diagnostics if e.location is not None]
        assert len(located) >= 2
        assert all(e.location.filename.endswith("test_dsl.py")
                   for e in located)

    def test_nameless_tunable_outside_class_rejected(self):
        decl = accuracy_variable(lo=1, hi=2)
        with pytest.raises(LanguageError, match="without a name"):
            Transform("t", inputs=("a",), outputs=("b",),
                      tunables=[decl])

    def test_named_decl_in_imperative_api_resolves_to_param(self):
        """A TunableDecl that received a name (from a plain class
        body) is resolved by the imperative API, not stored raw."""

        class namespace:
            m = accuracy_variable(lo=1, hi=10, default=2)

        lowered = Transform("t", inputs=("a",), outputs=("b",),
                            tunables=[namespace.m])
        assert lowered.tunables[0].name == "m"
        assert lowered.tunables[0].hi == 10
        added = Transform("t2", inputs=("a",), outputs=("b",))
        added.add_tunable(namespace.m)
        assert added.tunables[0].name == "m"

    def test_shared_declaration_rebinds_per_class(self):
        """One nameless declaration bound under different attribute
        names in different class bodies gets each class's name."""
        shared = for_enough(max_iters=6)

        @transform(inputs=("a",), outputs=("b",))
        class one:
            x = shared

            @rule
            def r(ctx, a):
                return a

        @transform(inputs=("a",), outputs=("b",))
        class two:
            y = shared

            @rule
            def r(ctx, a):
                return a

        assert [t.name for t in one.tunables] == ["x"]
        assert [t.name for t in two.tunables] == ["y"]

    def test_switch_bad_default_batched_with_location(self):
        """A nameless switch with an out-of-domain default reports
        through the batched pass under its inferred name."""
        with pytest.raises(LanguageError) as exc_info:
            @transform(inputs=("a",), outputs=("b",))
            class badswitch:
                mode = switch(choices=("a", "b"), default="z")

                @rule
                def r(ctx, nope):
                    return 0

        diagnostics = exc_info.value.diagnostics
        assert len(diagnostics) == 2
        entry = next(e for e in diagnostics if "mode" in e.message)
        assert "'z'" in entry.message
        assert entry.location is not None

    def test_nameless_tunable_error_names_declaration_site(self):
        decl = for_enough(max_iters=5)
        with pytest.raises(LanguageError, match="test_dsl.py"):
            Transform("t", inputs=("a",), outputs=("b",),
                      tunables=[decl])

    def test_missing_required_arguments_fail_loudly(self):
        with pytest.raises(LanguageError, match="max_iters"):
            for_enough("x")
        with pytest.raises(LanguageError, match="lo, hi"):
            accuracy_variable("x")
        with pytest.raises(LanguageError, match="choices"):
            switch("x")

    def test_missing_required_arguments_batched_in_class_body(self):
        """Nameless declarations defer missing-argument errors into
        the batched pass instead of aborting the class body."""
        with pytest.raises(LanguageError) as exc_info:
            @transform(inputs=("a",), outputs=("b",))
            class incomplete:
                first = accuracy_variable()
                second = for_enough()

                @rule
                def r(ctx, a):
                    return a

        diagnostics = exc_info.value.diagnostics
        assert len(diagnostics) == 2
        rendered = diagnostics.render()
        assert "lo, hi" in rendered
        assert "max_iters" in rendered
        assert all(e.location is not None for e in diagnostics)

    def test_switch_default_must_be_a_choice(self):
        with pytest.raises(LanguageError, match="not one of"):
            switch("mode", choices=("a", "b"), default="z")

    def test_varargs_rule_rejected(self):
        with pytest.raises(LanguageError, match="inputs=..."):
            @transform(inputs=("a",), outputs=("b",))
            class varargs:
                @rule
                def r(ctx, *rest):
                    return 0

    def test_duplicate_rule_names_batched(self):
        with pytest.raises(LanguageError) as exc_info:
            @transform(inputs=("a",), outputs=("b",))
            class duped:
                @rule(name="same")
                def r1(ctx, a):
                    return a

                @rule(name="same")
                def r2(ctx, a):
                    return a

        assert any("duplicate rule" in e.message
                   for e in exc_info.value.diagnostics)

    def test_duplicate_metric_reported(self):
        with pytest.raises(LanguageError, match="more than one"):
            @transform(inputs=("a",), outputs=("b",))
            class twometrics:
                m1 = accuracy_metric(_unit_metric)
                m2 = accuracy_metric(_unit_metric)

                @rule
                def r(ctx, a):
                    return a

    def test_compile_batches_errors_across_transforms(self):
        """One compile pass reports the unknown call target AND the
        unproduced datum together."""
        root = Transform("root", inputs=("a",), outputs=("b", "c"),
                         calls=[CallSite("sub", "missing")])
        root.rule(outputs=("b",), inputs=("a",))(lambda ctx, a: a)
        with pytest.raises(CompileError) as exc_info:
            compile_program(root)
        diagnostics = exc_info.value.diagnostics
        assert len(diagnostics) >= 2
        rendered = diagnostics.render()
        assert "missing" in rendered
        assert "'c'" in rendered

    def test_call_accuracy_on_fixed_accuracy_callee_rejected(self):
        leaf = Transform("leaf", inputs=("x",), outputs=("y",))
        leaf.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        root = Transform("root", inputs=("a",), outputs=("b",),
                         calls=[CallSite("sub", "leaf", accuracy=0.9)])
        root.rule(outputs=("b",), inputs=("a",))(lambda ctx, a: a)
        with pytest.raises(CompileError,
                           match="declares no accuracy metric"):
            compile_program(root, [leaf])

    def test_non_finite_call_accuracy_rejected(self):
        leaf = Transform("leaf", inputs=("x",), outputs=("y",),
                         accuracy_metric=_unit_metric)
        leaf.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        root = Transform("root", inputs=("a",), outputs=("b",),
                         calls=[CallSite("sub", "leaf",
                                         accuracy=float("nan"))])
        root.rule(outputs=("b",), inputs=("a",))(lambda ctx, a: a)
        with pytest.raises(CompileError, match="finite"):
            compile_program(root, [leaf])

    def test_validate_standalone_still_fails_fast(self):
        bare = Transform("t", inputs=("a",), outputs=("b",))
        with pytest.raises(LanguageError):
            bare.validate()


# ----------------------------------------------------------------------
# DSL / imperative equivalence — the lowering proof.
#
# The imperative twins below re-declare two suite benchmarks through
# the plain Transform API (the documented lowering target), against
# the same kernels.  Identical config spaces are checked structurally;
# identical *behaviour* is checked by running the full autotuner on
# both with a fixed seed and comparing frontiers and per-bin
# configurations.
# ----------------------------------------------------------------------
def build_imagecompression_twin() -> Transform:
    from repro.linalg.svd import (rank_k_reconstruction,
                                  singular_triplets_full,
                                  singular_triplets_topk)
    from repro.suite import imagecompression as mod

    twin = Transform(
        "imagecompression",
        inputs=("matrix",),
        outputs=("approx",),
        accuracy_metric=AccuracyMetric(mod._metric, "log_rms_ratio"),
        accuracy_bins=mod.ACCURACY_BINS,
        tunables=[accuracy_variable("k", lo=1, hi=mod.MAX_RANK,
                                    default=1, direction=+1)],
    )

    @twin.rule(outputs=("approx",), inputs=("matrix",), name="hybrid_qr")
    def hybrid_qr(ctx, matrix):
        k = mod._clamped_k(ctx, matrix)
        sigma, left, right, ops = singular_triplets_full(matrix, k)
        approx, reconstruction_ops = rank_k_reconstruction(
            sigma, left, right)
        ctx.add_cost(ops + reconstruction_ops)
        ctx.record("svd", algorithm="hybrid_qr", k=k)
        return approx

    @twin.rule(outputs=("approx",), inputs=("matrix",),
               name="bisection_topk")
    def bisection_topk(ctx, matrix):
        k = mod._clamped_k(ctx, matrix)
        sigma, left, right, ops = singular_triplets_topk(matrix, k,
                                                         ctx.rng)
        approx, reconstruction_ops = rank_k_reconstruction(
            sigma, left, right)
        ctx.add_cost(ops + reconstruction_ops)
        ctx.record("svd", algorithm="bisection_topk", k=k)
        return approx

    return twin


def build_preconditioner_twin() -> Transform:
    from repro.linalg.poisson_ops import laplacian_1d_diagonal
    from repro.linalg.precond import (jacobi_preconditioner,
                                      polynomial_preconditioner)
    from repro.suite import preconditioner as mod

    twin = Transform(
        "preconditioner",
        inputs=("b_rhs", "extra_diag"),
        outputs=("x",),
        accuracy_metric=AccuracyMetric(mod._metric, "log_residual_drop"),
        accuracy_bins=mod.ACCURACY_BINS,
        tunables=[
            for_enough("iterations", max_iters=3000, default=10),
            accuracy_variable("degree", lo=1, hi=8, default=2,
                              direction=0),
            precision("precision"),
        ],
    )

    @twin.rule(outputs=("x",), inputs=("b_rhs", "extra_diag"), name="cg")
    def plain_cg(ctx, b_rhs, extra_diag):
        return mod._run_cg(ctx, b_rhs, extra_diag)

    @twin.rule(outputs=("x",), inputs=("b_rhs", "extra_diag"),
               name="jacobi_pcg")
    def jacobi_pcg(ctx, b_rhs, extra_diag):
        diagonal = laplacian_1d_diagonal(len(b_rhs), mod.SPACING,
                                         extra_diag)
        apply_minv, cost = jacobi_preconditioner(diagonal)
        return mod._run_cg(ctx, b_rhs, extra_diag, apply_minv, cost)

    @twin.rule(outputs=("x",), inputs=("b_rhs", "extra_diag"),
               name="polynomial_pcg")
    def polynomial_pcg(ctx, b_rhs, extra_diag):
        n = len(b_rhs)
        degree = int(ctx.param("degree"))
        lambda_max = 4.0 / (mod.SPACING * mod.SPACING)
        if len(extra_diag):
            lambda_max += float(np.max(extra_diag))
        apply_minv, cost = polynomial_preconditioner(
            lambda v: mod._apply_operator(v, extra_diag), degree,
            1.0 / lambda_max, 5.0 * n, n)
        return mod._run_cg(ctx, b_rhs, extra_diag, apply_minv, cost)

    return twin


EQUIVALENCE_CASES = {
    "imagecompression": (build_imagecompression_twin,
                         dict(input_sizes=(6.0, 10.0))),
    "preconditioner": (build_preconditioner_twin,
                       dict(input_sizes=(16.0, 32.0))),
}

TWIN_SETTINGS = dict(rounds_per_size=1, mutation_attempts=3,
                     min_trials=2, max_trials=3, initial_random=1,
                     guided_max_evaluations=6,
                     accuracy_confidence=None, seed=17)


class TestDslImperativeEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_identical_config_space_and_training_info(self, name):
        from repro.suite import get_benchmark
        twin_builder, _ = EQUIVALENCE_CASES[name]
        dsl_program, dsl_info = get_benchmark(name).compile()
        imp_program, imp_info = compile_program(twin_builder())
        assert dsl_program.space.digest() == imp_program.space.digest()
        assert sorted(dsl_program.instances) == \
            sorted(imp_program.instances)
        assert dsl_info.to_xml() == imp_info.to_xml()

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_identical_frontier_for_fixed_seed(self, name):
        from repro.suite import get_benchmark
        twin_builder, sizes = EQUIVALENCE_CASES[name]
        spec = get_benchmark(name)
        settings = TunerSettings(**TWIN_SETTINGS, **sizes)

        def tune(program):
            with ProgramTestHarness(program, spec.generate,
                                    base_seed=2) as harness:
                return Autotuner(program, harness, settings).tune()

        dsl_result = tune(spec.compile()[0])
        imp_result = tune(compile_program(twin_builder())[0])
        assert dsl_result.frontier() == imp_result.frontier()
        assert dsl_result.trials_run == imp_result.trials_run
        assert list(dsl_result.best_per_bin) == \
            list(imp_result.best_per_bin)
        for target, candidate in dsl_result.best_per_bin.items():
            assert candidate.config.dumps() == \
                imp_result.best_per_bin[target].config.dumps()


class TestDescribeAndCheck:
    def test_describe_renders_the_tuning_surface(self):
        from repro.suite import get_benchmark
        program, _ = get_benchmark("poisson").compile()
        text = describe(program)
        assert "program poisson" in text
        assert "config-space digest" in text
        assert "choice site u: multigrid | full_multigrid | direct " \
               "| iterative" in text
        assert "tunable vcycles" in text
        assert "call coarse -> poisson (auto accuracy)" in text
        assert "accuracy bins: 1, 3, 5, 7, 9" in text
        assert "poisson@main" in text

    def test_describe_accepts_transform_and_name(self):
        lowered = make_dsl_pair()
        assert "pipelineish" in describe(lowered)
        assert "program binpacking" in describe("binpacking")

    def test_check_clean_benchmark_returns_empty(self):
        diagnostics = check("poisson")
        assert not diagnostics

    def test_check_broken_transform_returns_entries(self):
        bad = Transform("bad", inputs=("a",), outputs=("b", "c"))
        bad.rule(outputs=("b",), inputs=("a",))(lambda ctx, a: a)
        diagnostics = check(bad)
        assert diagnostics
        assert any("'c'" in e.message for e in diagnostics)

    def test_check_accepts_factory(self):
        from repro.suite import get_benchmark
        assert not check(get_benchmark("clustering").build)

    def test_main_checks_all_benchmarks(self):
        from repro.lang.check import main
        lines = []
        assert main(log=lines.append) == 0
        assert len(lines) == 6
        assert all(": ok (" in line for line in lines)

    def test_main_reports_failures(self, monkeypatch):
        from repro.lang.check import main
        from repro.suite.registry import BenchmarkSpec

        def broken_build():
            bad = Transform("bad", inputs=("a",), outputs=("b", "c"))
            bad.rule(outputs=("b",), inputs=("a",))(lambda ctx, a: a)
            return bad, ()

        spec = BenchmarkSpec(name="bad", build=broken_build,
                             generate=lambda n, rng: {},
                             training_sizes=(4.0,), cost_limit=None,
                             description="broken")
        monkeypatch.setattr("repro.suite.registry._load_specs",
                            lambda: {"bad": spec})
        lines = []
        assert main(log=lines.append) == 1
        assert any("FAILED" in line for line in lines)


class TestBackendSpecMessage:
    def test_unknown_spec_lists_valid_forms(self):
        with pytest.raises(ConfigError) as exc_info:
            backend_from_spec("quantum:3")
        message = str(exc_info.value)
        assert "'serial'" in message
        assert "'threads[:N]'" in message
        assert "'process[:N]'" in message
