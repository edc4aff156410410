"""Config-space checks (``repro.analysis``) as ``check()`` errors.

A dead tunable and an unreachable instance change no output, so no
execution-based test can see them; ``check()`` reports both as
ordinary declaration errors, located in this file's fixtures, and the
``python -m repro.lang`` gate fails on them.  Also covers the call
graph the dead-tunable check walks, the search-space estimate
``describe()`` prints, and example-target discovery.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis import CallGraph, search_space_size
from repro.lang import (
    accuracy_metric,
    accuracy_variable,
    call,
    check,
    cutoff,
    describe,
    precision,
    rule,
    transform,
)
from repro.lang.check import main
from repro.lang.targets import load_example_targets

THIS_FILE = os.path.abspath(__file__)
EXAMPLES_DIR = os.path.join(os.path.dirname(THIS_FILE), os.pardir,
                            "examples")


def line_of(snippet: str) -> int:
    """1-based line number of the fixture line containing ``snippet``."""
    with open(THIS_FILE, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if snippet in line and "line_of(" not in line:
                return lineno
    raise AssertionError(f"marker not found: {snippet!r}")


# ----------------------------------------------------------------------
# Fixtures: one transform per config-space fault, and clean controls.
# ----------------------------------------------------------------------
@transform(inputs=("xs",), outputs=("est",))
class dead_tunable_program:
    threshold = cutoff(lo=1.0, hi=10.0, default=2.0)

    @rule
    def dead_tunable_rule(ctx, xs):  # marker: dead-rule
        return float(np.sum(xs))


@transform(inputs=("xs",), outputs=("ys",))
class precision_program:
    working_dtype = precision()

    @rule
    def cast_rule(ctx, xs):
        return xs * 2.0


@transform(inputs=("xs",), outputs=("est",), accuracy_bins=(0.5, 0.9))
class binned_helper:
    samples = accuracy_variable(lo=1, hi=100, default=4, direction=+1)

    @accuracy_metric
    def always_right(outputs, inputs):
        return 1.0

    @rule
    def sample_rule(ctx, xs):
        count = int(ctx.param("samples"))
        ctx.add_cost(count)
        return float(np.mean(xs[:count]))


@transform(inputs=("xs",), outputs=("est",))
class pinned_root:
    helper = call("binned_helper", accuracy=0.9)

    @rule
    def dispatch_rule(ctx, xs):
        return ctx.call("helper", {"xs": xs})["est"]


def fixture_registry(monkeypatch, name, build):
    """Make ``name`` (built by ``build``) the only registered benchmark."""
    from repro.suite.registry import BenchmarkSpec

    spec = BenchmarkSpec(name=name, build=build,
                         generate=lambda n, rng: {},
                         training_sizes=(4.0,), cost_limit=None,
                         description="fixture")
    monkeypatch.setattr("repro.suite.registry._load_specs",
                        lambda: {name: spec})


# ----------------------------------------------------------------------
# Dead tunables and unreachable instances are check() errors
# ----------------------------------------------------------------------
class TestConfigSpaceChecks:
    def test_dead_tunable_is_a_check_error(self):
        (entry,) = check(dead_tunable_program)
        assert entry.transform == "dead_tunable_program"
        assert "dead tunable 'threshold'" in entry.message
        assert os.path.abspath(entry.location.filename) == THIS_FILE
        assert entry.location.lineno == line_of("marker: dead-rule")

    def test_read_tunable_is_not_dead(self):
        assert not check(binned_helper)

    def test_precision_tunable_is_exempt(self):
        assert not check(precision_program)

    def test_unreachable_instance_is_a_check_error(self):
        (entry,) = check(pinned_root, (binned_helper,))
        assert entry.transform == "binned_helper"
        assert "unreachable instance 'binned_helper@0.5'" in \
            entry.message
        assert "@0.9" not in entry.message

    def test_dead_tunable_fails_the_gate(self, monkeypatch):
        fixture_registry(monkeypatch, "dead",
                         lambda: (dead_tunable_program, ()))
        lines = []
        assert main(log=lines.append) == 1
        assert lines[0] == "dead: FAILED"
        assert any("dead tunable 'threshold'" in line for line in lines)

    def test_dead_tunable_in_an_example_fails_the_gate(self, tmp_path):
        (tmp_path / "dead_example.py").write_text(
            "from repro.lang import cutoff, rule, transform\n"
            "\n"
            "@transform(inputs=('xs',), outputs=('est',))\n"
            "class unread:\n"
            "    knob = cutoff(lo=1.0, hi=4.0, default=2.0)\n"
            "\n"
            "    @rule\n"
            "    def total(ctx, xs):\n"
            "        return sum(xs)\n")
        lines = []
        assert main(["binpacking", "--examples", str(tmp_path)],
                    log=lines.append) == 1
        prefix = os.path.basename(str(tmp_path))
        assert f"{prefix}/dead_example.py: FAILED" in lines
        assert any("dead tunable 'knob'" in line for line in lines)

    def test_search_space_counts_continuous_separately(self):
        from repro.lang.targets import resolve_program
        space = resolve_program("poisson").space
        log10, continuous = search_space_size(space)
        assert log10 > 10.0
        assert continuous == 6  # one omega cutoff per instance


# ----------------------------------------------------------------------
# CallGraph edge cases: lambdas, closures, decorators, partial
# ----------------------------------------------------------------------
def _edge_plain(x):
    return x + 1


_EDGE_LAMBDA = lambda x: _edge_plain(x)  # noqa: E731


def _edge_outer():
    offset = 2

    def inner(x):
        return _edge_plain(x) + offset
    return inner


def _edge_decorator(fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


@_edge_decorator
def _edge_decorated(x):
    return _edge_plain(x)


_EDGE_TWIN_A, _EDGE_TWIN_B = (lambda: 1), (lambda: 2)


class TestCallGraphEdgeCases:
    @pytest.fixture()
    def graph(self):
        return CallGraph()

    def test_lambda_resolves_with_its_callees(self, graph):
        import ast
        info = graph.info(_EDGE_LAMBDA)
        assert info is not None
        assert isinstance(info.node, ast.Lambda)
        assert _edge_plain in list(graph.callees(info))

    def test_two_lambdas_on_one_line_are_explicitly_skipped(self, graph):
        # ("<lambda>", lineno) cannot distinguish them; the graph
        # refuses to guess rather than mis-attribute a body.
        assert graph.info(_EDGE_TWIN_A) is None
        assert graph.info(_EDGE_TWIN_B) is None

    def test_nested_closure_resolves_cell_contents(self, graph):
        inner = _edge_outer()
        info = graph.info(inner)
        assert info is not None
        assert info.namespace()["offset"] == 2
        assert _edge_plain in list(graph.callees(info))

    def test_decorated_function_resolves_to_wrapped_body(self, graph):
        info = graph.info(_edge_decorated)
        assert info is not None
        assert info.node.name == "_edge_decorated"
        assert _edge_plain in list(graph.callees(info))

    def test_functools_partial_unwraps_to_its_function(self, graph):
        import functools
        bound = functools.partial(_edge_plain, 3)
        info = graph.info(bound)
        assert info is not None
        assert info.node.name == "_edge_plain"

    def test_reachability_crosses_every_edge_kind(self, graph):
        import functools
        inner = _edge_outer()
        roots = [_EDGE_LAMBDA, inner, _edge_decorated,
                 functools.partial(_edge_plain, 3)]
        names = {info.node.name if hasattr(info.node, "name")
                 else "<lambda>"
                 for info in graph.reachable(roots)}
        assert "_edge_plain" in names  # reached through all four


# ----------------------------------------------------------------------
# describe() renders the precision dimension and the space size
# ----------------------------------------------------------------------
class TestDescribe:
    def test_precision_tunable_renders_distinctly(self):
        text = describe("preconditioner")
        assert "precision over" in text
        assert "float32" in text
        assert "(executor casts inputs)" in text

    def test_search_space_line_is_present(self):
        text = describe("preconditioner")
        assert "search space:" in text
        assert "~10^" in text


# ----------------------------------------------------------------------
# Shared target resolution
# ----------------------------------------------------------------------
class TestExampleTargets:
    def test_module_level_transforms_are_discovered(self):
        path = os.path.join(EXAMPLES_DIR, "quickstart.py")
        names = [name for name, _, _ in load_example_targets(path)]
        assert "approxmean" in names

    def test_annotated_factories_are_discovered(self):
        path = os.path.join(EXAMPLES_DIR, "signal_scaling.py")
        names = [name for name, _, _ in load_example_targets(path)]
        assert "make_smoother" in names

    def test_demo_drivers_are_not_called(self):
        path = os.path.join(EXAMPLES_DIR, "signal_scaling.py")
        names = [name for name, _, _ in load_example_targets(path)]
        assert "main" not in names


# ----------------------------------------------------------------------
# The CLI gate (python -m repro.lang)
# ----------------------------------------------------------------------
class TestCheckCLI:
    def test_check_json_is_machine_readable(self):
        lines = []
        assert main(["--json", "preconditioner"], log=lines.append) == 0
        payload = json.loads("\n".join(lines))
        assert payload["failures"] == 0
        target = payload["targets"]["preconditioner"]
        assert target["ok"] and target["diagnostics"] == []

    def test_json_reports_a_dead_tunable(self, monkeypatch):
        fixture_registry(monkeypatch, "dead",
                         lambda: (dead_tunable_program, ()))
        lines = []
        assert main(["--json"], log=lines.append) == 1
        target = json.loads("\n".join(lines))["targets"]["dead"]
        assert not target["ok"]
        assert "dead tunable 'threshold'" in target["diagnostics"][0]

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_module_target_fails_loudly(self, json_mode):
        # Dotted module names are not check targets: they fail with a
        # diagnostic, never pass silently.
        lines = []
        argv = ["repro.serving.engine"]
        assert main(argv + ["--json"] * json_mode,
                    log=lines.append) == 1
        assert "unknown benchmark 'repro.serving.engine'" in \
            "\n".join(lines)
        if json_mode:
            payload = json.loads("\n".join(lines))
            assert not payload["targets"]["repro.serving.engine"]["ok"]
        else:
            assert lines[0] == "repro.serving.engine: FAILED"

    def test_examples_flag_requires_a_directory(self):
        lines = []
        assert main(["--examples"], log=lines.append) == 1
        assert lines == ["--examples requires an argument"]

    @pytest.mark.parametrize("argv", [["--analyze"],
                                      ["--baseline", "x.json"]])
    def test_unknown_option_is_refused(self, argv):
        lines = []
        assert main(argv, log=lines.append) == 1
        assert lines == [f"unknown option {argv[0]!r}"]
