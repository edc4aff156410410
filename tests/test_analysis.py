"""The whole-program static contract analyzer (``repro.analysis``).

Every documented finding code is proven to *fire* here, on fixture
transforms carrying exactly one violation each, with the finding's
``file:line`` asserted against this file's source — and proven to stay
*quiet* on all six registered suite benchmarks, which is the invariant
the CI Analyze step enforces.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
import pytest

from repro.analysis import (
    ERROR,
    FINDING_CODES,
    INFO,
    SCHEMA_VERSION,
    WARNING,
    load_baseline,
    partition_findings,
    search_space_size,
    stale_entries,
)
from repro.contracts import contract_of, kernel
from repro.errors import ReproError
from repro.lang import (
    accuracy_metric,
    accuracy_variable,
    analyze,
    call,
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

SUITE = ["binpacking", "clustering", "helmholtz", "imagecompression",
         "poisson", "preconditioner"]


def line_of(snippet: str) -> int:
    """1-based line number of the fixture line containing ``snippet``."""
    with open(THIS_FILE, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if snippet in line and "line_of(" not in line:
                return lineno
    raise AssertionError(f"marker not found: {snippet!r}")


def findings_for(report, code):
    return [f for f in report if f.code == code]


def assert_located_here(finding, snippet):
    assert finding.location is not None
    assert os.path.abspath(finding.location.filename) == THIS_FILE
    assert finding.location.lineno == line_of(snippet)


# ----------------------------------------------------------------------
# Violation fixtures: one transform per contract breach.
# ----------------------------------------------------------------------
_SCRATCH: dict = {}


def impure_helper(xs):
    _SCRATCH["calls"] = 1  # noqa-analysis: global-store
    stamp = time.time()  # noqa-analysis: wall-clock
    noise = random.random()  # noqa-analysis: unrouted-random
    handle = open(os.devnull)  # noqa-analysis: file-io
    handle.close()
    return float(np.mean(xs)) + 0.0 * (stamp + noise)


@transform(inputs=("xs",), outputs=("est",))
class impure_program:
    @rule
    def impure_rule(ctx, xs):
        return impure_helper(xs)


@kernel(dtype_preserving=True)
def widening_kernel(xs):
    ys = np.asarray(xs, dtype=float)  # noqa-analysis: widening-coerce
    pad = np.zeros(3)  # noqa-analysis: dtypeless-alloc
    scaled = np.float64(2.0) * ys  # noqa-analysis: f64-literal
    return ys + scaled + float(pad.sum())


@transform(inputs=("xs",), outputs=("ys",))
class widening_program:
    @rule
    def widening_rule(ctx, xs):
        return widening_kernel(xs)


@transform(inputs=("xs",), outputs=("est",))
class dead_tunable_program:
    threshold = cutoff(lo=1.0, hi=10.0, default=2.0)

    @rule
    def dead_tunable_rule(ctx, xs):  # noqa-analysis: dead-rule
        return float(np.sum(xs))


@kernel(dtype_preserving=True)  # stacked defaults to False
def scalar_only_kernel(xs):  # noqa-analysis: scalar-kernel
    return xs * 2.0


@transform(inputs=("xs",), outputs=("ys",), batchable=True)
class false_batchable_program:
    @rule
    def batch_rule(ctx, xs):
        return scalar_only_kernel(xs)


@kernel(stacked=True)  # dtype_preserving defaults to False
def widening_stacked_kernel(xs):  # noqa-analysis: unpreserving-kernel
    return xs * 2.0


@transform(inputs=("xs",), outputs=("ys",))
class false_precision_program:
    working_dtype = precision()

    @rule
    def cast_rule(ctx, xs):
        return widening_stacked_kernel(xs)


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


# ----------------------------------------------------------------------
# Pass 1: purity/determinism (REP1xx)
# ----------------------------------------------------------------------
class TestPurityFindings:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze(impure_program)

    def test_global_store_fires_rep101(self, report):
        (finding,) = findings_for(report, "REP101")
        assert finding.severity == ERROR
        assert finding.transform == "impure_program"
        assert finding.rule == "impure_rule"
        assert "_SCRATCH" in finding.message
        assert_located_here(finding, "noqa-analysis: global-store")

    def test_wall_clock_fires_rep102(self, report):
        (finding,) = findings_for(report, "REP102")
        assert finding.severity == ERROR
        assert "time.time" in finding.message
        assert_located_here(finding, "noqa-analysis: wall-clock")

    def test_unrouted_random_fires_rep103(self, report):
        (finding,) = findings_for(report, "REP103")
        assert finding.severity == ERROR
        assert "ctx.rng" in finding.message
        assert_located_here(finding, "noqa-analysis: unrouted-random")

    def test_file_io_fires_rep104(self, report):
        (finding,) = findings_for(report, "REP104")
        assert finding.severity == ERROR
        assert "open()" in finding.message
        assert_located_here(finding, "noqa-analysis: file-io")


# ----------------------------------------------------------------------
# Pass 2: dtype flow (REP2xx) — fixture kernel registered
# dtype_preserving, so the lint covers it outside the substrate tree.
# ----------------------------------------------------------------------
class TestDtypeFlowFindings:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze(widening_program)

    def test_widening_coercion_fires_rep201(self, report):
        (finding,) = findings_for(report, "REP201")
        assert finding.severity == WARNING
        assert "as_float" in finding.message
        assert_located_here(finding, "noqa-analysis: widening-coerce")

    def test_dtypeless_allocation_fires_rep202(self, report):
        (finding,) = findings_for(report, "REP202")
        assert finding.severity == WARNING
        assert "np.zeros" in finding.message
        assert_located_here(finding, "noqa-analysis: dtypeless-alloc")

    def test_float64_literal_fires_rep203(self, report):
        (finding,) = findings_for(report, "REP203")
        assert finding.severity == WARNING
        assert_located_here(finding, "noqa-analysis: f64-literal")

    def test_no_purity_errors_on_this_fixture(self, report):
        assert report.errors == []


# ----------------------------------------------------------------------
# Pass 3: pledge verification (REP3xx)
# ----------------------------------------------------------------------
class TestPledgeFindings:
    def test_false_batchable_pledge_fires_rep301(self):
        report = analyze(false_batchable_program)
        (finding,) = findings_for(report, "REP301")
        assert finding.severity == ERROR
        assert finding.rule == "batch_rule"
        assert "scalar_only_kernel" in finding.message
        assert "stacked=False" in finding.message
        assert_located_here(finding, "noqa-analysis: scalar-kernel")

    def test_false_precision_pledge_fires_rep302(self):
        report = analyze(false_precision_program)
        (finding,) = findings_for(report, "REP302")
        assert finding.severity == ERROR
        assert "widening_stacked_kernel" in finding.message
        assert "dtype_preserving=False" in finding.message
        assert_located_here(finding, "noqa-analysis: unpreserving-kernel")

    def test_contracts_registry_round_trip(self):
        contract = contract_of(scalar_only_kernel)
        assert contract is not None
        assert not contract.stacked and contract.dtype_preserving
        assert contract_of(impure_helper) is None


# ----------------------------------------------------------------------
# Pass 4: config space (REP4xx, REP001)
# ----------------------------------------------------------------------
class TestConfigSpaceFindings:
    def test_dead_tunable_fires_rep401(self):
        report = analyze(dead_tunable_program)
        (finding,) = findings_for(report, "REP401")
        assert finding.severity == WARNING
        assert "'threshold'" in finding.message
        assert_located_here(finding, "noqa-analysis: dead-rule")

    def test_read_tunable_is_not_dead(self):
        report = analyze(binned_helper)
        assert findings_for(report, "REP401") == []

    def test_unreachable_instance_fires_rep402(self):
        report = analyze(pinned_root, (binned_helper,))
        findings = findings_for(report, "REP402")
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert "binned_helper@0.5" in findings[0].message
        assert "@0.9" not in findings[0].message

    def test_precision_tunable_is_exempt_from_rep401(self):
        report = analyze(false_precision_program)
        assert findings_for(report, "REP401") == []

    def test_search_space_estimate_fires_rep001(self):
        report = analyze(dead_tunable_program)
        (finding,) = findings_for(report, "REP001")
        assert finding.severity == INFO
        assert "~10^" in finding.message

    def test_search_space_counts_continuous_separately(self):
        from repro.lang.targets import resolve_program
        space = resolve_program("poisson").space
        log10, continuous = search_space_size(space)
        assert log10 > 10.0
        assert continuous == 6  # one omega cutoff per instance


# ----------------------------------------------------------------------
# Every documented code fires
# ----------------------------------------------------------------------
class TestCodeCoverage:
    def test_every_documented_code_is_proven_to_fire(self):
        fired = set()
        for target, extras in [(impure_program, ()),
                               (widening_program, ()),
                               (dead_tunable_program, ()),
                               (false_batchable_program, ()),
                               (false_precision_program, ()),
                               (pinned_root, (binned_helper,))]:
            fired.update(f.code for f in analyze(target, extras))
        assert fired == set(FINDING_CODES)


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
        from repro.analysis import CallGraph
        return CallGraph()

    def test_lambda_resolves_with_its_callees(self, graph):
        import ast
        info = graph.info(_EDGE_LAMBDA)
        assert info is not None
        assert isinstance(info.node, ast.Lambda)
        callees = [callee for callee, _ in graph.callees(info)]
        assert _edge_plain in callees

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
        callees = [callee for callee, _ in graph.callees(info)]
        assert _edge_plain in callees

    def test_decorated_function_resolves_to_wrapped_body(self, graph):
        info = graph.info(_edge_decorated)
        assert info is not None
        assert info.node.name == "_edge_decorated"
        callees = [callee for callee, _ in graph.callees(info)]
        assert _edge_plain in callees

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
# The suite invariant: all six benchmarks analyze clean
# ----------------------------------------------------------------------
class TestSuiteIsClean:
    @pytest.mark.parametrize("name", SUITE)
    def test_benchmark_has_no_errors_or_warnings(self, name):
        report = analyze(name)
        assert report.errors == []
        assert report.warnings == []
        assert findings_for(report, "REP001")


# ----------------------------------------------------------------------
# Baseline: warnings suppressible, errors never
# ----------------------------------------------------------------------
class TestBaseline:
    def test_matching_warning_is_suppressed(self):
        report = analyze(dead_tunable_program)
        baseline = [{"code": "REP401", "path": "test_analysis.py",
                     "contains": "threshold"}]
        active, suppressed = partition_findings(report, baseline)
        assert [f.code for f in suppressed] == ["REP401"]
        assert all(f.code != "REP401" for f in active)

    def test_non_matching_entry_suppresses_nothing(self):
        report = analyze(dead_tunable_program)
        baseline = [{"code": "REP401", "path": "some/other/file.py"}]
        active, suppressed = partition_findings(report, baseline)
        assert suppressed == []
        assert any(f.code == "REP401" for f in active)

    def test_matched_entries_are_not_stale(self):
        report = analyze(widening_program)
        baseline = [{"code": "REP201", "path": "test_analysis.py"}]
        matched: set = set()
        _, suppressed = partition_findings(report, baseline,
                                           matched=matched)
        assert [f.code for f in suppressed] == ["REP201"]
        assert stale_entries(baseline, matched) == []

    def test_errors_are_never_baselinable(self):
        report = analyze(false_batchable_program)
        active, suppressed = partition_findings(
            report, [{"code": "REP301"}])
        assert suppressed == []
        assert any(f.code == "REP301" for f in active)

    def test_load_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"accepted": [{"code": "REP202", "path": "cg.py"}]}))
        assert load_baseline(str(path)) == [
            {"code": "REP202", "path": "cg.py"}]

    def test_load_baseline_rejects_bad_shapes(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(ReproError, match="accepted"):
            load_baseline(str(path))
        path.write_text(json.dumps({"accepted": [{"path": "x.py"}]}))
        with pytest.raises(ReproError, match="code"):
            load_baseline(str(path))
        with pytest.raises(ReproError, match="cannot read"):
            load_baseline(str(tmp_path / "missing.json"))

    def test_checked_in_baseline_parses(self):
        repo_root = os.path.join(os.path.dirname(THIS_FILE), os.pardir)
        path = os.path.join(repo_root, "ANALYSIS_BASELINE.json")
        assert isinstance(load_baseline(path), list)


# ----------------------------------------------------------------------
# describe() renders the new dimensions (satellite b)
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
# Shared target resolution (satellite c)
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
class TestAnalyzeCLI:
    def test_analyze_mode_is_clean_over_a_benchmark(self):
        lines = []
        assert main(["--analyze", "preconditioner"],
                    log=lines.append) == 0
        assert lines[0].startswith("preconditioner: ok (0 errors")
        assert any("REP001" in line for line in lines)

    def test_analyze_json_is_machine_readable(self):
        lines = []
        assert main(["--analyze", "--json", "preconditioner"],
                    log=lines.append) == 0
        payload = json.loads("\n".join(lines))
        assert payload["mode"] == "analyze"
        target = payload["targets"]["preconditioner"]
        assert target["ok"] and target["errors"] == 0
        assert any(f["code"] == "REP001" for f in target["findings"])

    def test_check_json_is_machine_readable(self):
        lines = []
        assert main(["--json", "preconditioner"], log=lines.append) == 0
        payload = json.loads("\n".join(lines))
        assert payload["mode"] == "check"
        assert payload["targets"]["preconditioner"]["ok"]

    def test_analyze_main_reports_violations(self, monkeypatch):
        from repro.suite.registry import BenchmarkSpec

        spec = BenchmarkSpec(name="impure",
                             build=lambda: (impure_program, ()),
                             generate=lambda n, rng: {},
                             training_sizes=(4.0,), cost_limit=None,
                             description="fixture")
        monkeypatch.setattr("repro.suite.registry._load_specs",
                            lambda: {"impure": spec})
        lines = []
        assert main(["--analyze"], log=lines.append) == 1
        assert any("FAILED" in line for line in lines)
        assert any("REP102" in line for line in lines)

    def test_baseline_flag_requires_analyze_mode(self):
        lines = []
        assert main(["--baseline", "x.json", "preconditioner"],
                    log=lines.append) == 1
        assert any("--analyze" in line for line in lines)

    def test_json_payload_carries_schema_version(self):
        lines = []
        assert main(["--analyze", "--json", "preconditioner"],
                    log=lines.append) == 0
        assert json.loads("\n".join(lines))["schema_version"] == \
            SCHEMA_VERSION

    def test_json_findings_are_ordered_by_file_line_code(self):
        report = analyze(impure_program)
        report.extend(analyze(widening_program))
        payload = report.to_json()
        assert payload["schema_version"] == SCHEMA_VERSION
        keys = [(f["file"], f["line"], f["code"])
                for f in payload["findings"] if "file" in f]
        assert len(keys) > 4
        assert keys == sorted(keys)
        # Location-less program metrics (REP001) sort last.
        assert "file" not in payload["findings"][-1]

    def test_stale_baseline_entry_fails_the_gate(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"accepted": [
            {"code": "REP202", "path": "no/such/file.py"}]}))
        lines = []
        assert main(["--analyze", "preconditioner",
                     "--baseline", str(path)], log=lines.append) == 1
        assert lines[0].startswith("preconditioner: ok")
        assert any("stale" in line for line in lines)

    def test_stale_entries_surface_in_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        entry = {"code": "REP202", "path": "no/such/file.py"}
        path.write_text(json.dumps({"accepted": [entry]}))
        lines = []
        assert main(["--analyze", "--json", "preconditioner",
                     "--baseline", str(path)], log=lines.append) == 1
        payload = json.loads("\n".join(lines))
        assert payload["stale_baseline"] == [entry]
        assert payload["targets"]["preconditioner"]["ok"]

    def test_baselined_warning_passes_the_gate(self, monkeypatch,
                                               tmp_path):
        from repro.suite.registry import BenchmarkSpec

        spec = BenchmarkSpec(name="widening",
                             build=lambda: (widening_program, ()),
                             generate=lambda n, rng: {},
                             training_sizes=(4.0,), cost_limit=None,
                             description="fixture")
        monkeypatch.setattr("repro.suite.registry._load_specs",
                            lambda: {"widening": spec})
        lines = []
        assert main(["--analyze"], log=lines.append) == 1
        assert any("REP201" in line for line in lines)
        codes = ["REP201", "REP202", "REP203"]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"accepted": [
            {"code": code, "path": "test_analysis.py"} for code in codes]}))
        lines = []
        assert main(["--analyze", "--json", "--baseline", str(path)],
                    log=lines.append) == 0
        payload = json.loads("\n".join(lines))
        assert payload["stale_baseline"] == []
        suppressed = payload["targets"]["widening"]["suppressed"]
        assert [f["code"] for f in suppressed] == codes

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_former_module_target_fails_loudly(self, json_mode):
        # Dotted module names are not analysis targets: they fail
        # with a diagnostic, never pass silently.
        lines = []
        argv = ["--analyze", "repro.serving.engine"]
        assert main(argv + ["--json"] * json_mode,
                    log=lines.append) == 1
        assert "unknown benchmark 'repro.serving.engine'" in \
            "\n".join(lines)
        if json_mode:
            payload = json.loads("\n".join(lines))
            assert not payload["targets"]["repro.serving.engine"]["ok"]
        else:
            assert lines[0] == ("repro.serving.engine: FAILED "
                                "(does not compile)")

    def test_missing_baseline_file_fails_loudly(self, tmp_path):
        lines = []
        missing = str(tmp_path / "missing.json")
        assert main(["--analyze", "--baseline", missing,
                     "preconditioner"], log=lines.append) == 1
        assert any("cannot read" in line for line in lines)
