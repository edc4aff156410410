"""Concurrency & process-boundary passes (REP5xx / REP6xx).

Every code is proven to fire on ``fixtures_concurrency.py`` with its
exact ``file:line`` asserted against the marker comments there, the
whole serving tier is proven to analyze *clean* (the CI Analyze step's
invariant), and the module-target plumbing of ``python -m repro.lang``
is exercised end to end — including the stale-baseline ratchet.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import fixtures_concurrency as fx
from repro.analysis import (
    ERROR,
    INFO,
    SCHEMA_VERSION,
    analyze_modules,
    partition_findings,
    stale_entries,
)
from repro.contracts import (
    concurrency_contract_of,
    guarded_by,
    method_affinity_of,
    process_locals_of,
    required_lock_of,
    thread_affine,
)
from repro.lang import analyze, rule, transform
from repro.lang.check import main
from repro.lang.targets import SERVING_MODULES, is_module_target

THIS_FILE = os.path.abspath(__file__)
FIXTURES_FILE = os.path.abspath(fx.__file__)


def line_in_fixtures(snippet: str) -> int:
    """1-based line of the fixture line carrying ``snippet``."""
    with open(FIXTURES_FILE, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if snippet in line:
                return lineno
    raise AssertionError(f"marker not found: {snippet!r}")


def findings_for(report, code):
    return [f for f in report if f.code == code]


def assert_in_fixtures(finding, snippet):
    assert finding.location is not None
    assert os.path.abspath(finding.location.filename) == FIXTURES_FILE
    assert finding.location.lineno == line_in_fixtures(snippet)


@pytest.fixture(scope="module")
def report():
    return analyze_modules([fx])


# ----------------------------------------------------------------------
# REP501/REP504/REP505: the concurrency-contract pass
# ----------------------------------------------------------------------
class TestConcurrencyFindings:
    def test_unguarded_mutation_fires_rep501(self, report):
        findings = findings_for(report, "REP501")
        assert all(f.severity == ERROR for f in findings)
        mutation = [f for f in findings if f.rule == "put"]
        assert len(mutation) == 1
        assert "'_items'" in mutation[0].message
        assert "'_lock'" in mutation[0].message
        assert_in_fixtures(mutation[0],
                           "noqa-analysis: unguarded-mutation")

    def test_lockless_requires_lock_call_fires_rep501(self, report):
        calls = [f for f in findings_for(report, "REP501")
                 if f.rule == "flush"]
        assert len(calls) == 1
        assert "_flush()" in calls[0].message
        assert_in_fixtures(calls[0], "noqa-analysis: lockless-call")

    def test_guarded_mutation_under_lock_is_clean(self, report):
        assert not [f for f in report if f.rule == "put_safely"]

    def test_lock_order_inversion_fires_rep504_once(self, report):
        # The a->b / b->a cycle is one deadlock, not two findings.
        (finding,) = findings_for(report, "REP504")
        assert finding.severity == ERROR
        assert finding.transform == "BadOrder"
        assert "'_a'" in finding.message and "'_b'" in finding.message
        assert_in_fixtures(finding, "noqa-analysis: order-a-then-b")

    def test_undeclared_primitive_fires_rep505(self, report):
        (finding,) = findings_for(report, "REP505")
        assert finding.severity == ERROR
        assert finding.transform == "NoContract"
        assert "threading.Lock" in finding.message
        assert_in_fixtures(finding, "noqa-analysis: undeclared-lock")


# ----------------------------------------------------------------------
# REP602/REP603: the process-boundary pass
# ----------------------------------------------------------------------
class TestBoundaryFindings:
    def test_container_mutation_fires_rep602(self, report):
        hits = [f for f in findings_for(report, "REP602")
                if f.rule == "remember"]
        assert len(hits) == 1
        assert "'_CACHE'" in hits[0].message
        assert_in_fixtures(
            hits[0], "noqa-analysis: global-container-mutation")

    def test_global_rebind_fires_rep602(self, report):
        hits = [f for f in findings_for(report, "REP602")
                if f.rule == "bump"]
        assert len(hits) == 1
        assert "'_COUNTER'" in hits[0].message
        assert_in_fixtures(hits[0], "noqa-analysis: global-rebind")

    def test_declared_process_local_is_clean(self, report):
        assert not [f for f in report if f.rule == "remember_declared"]
        assert "_DECLARED" in process_locals_of("fixtures_concurrency")

    def test_lambda_to_sink_fires_rep603(self, report):
        hits = [f for f in findings_for(report, "REP603")
                if f.rule == "ship_lambda"]
        assert len(hits) == 1
        assert "lambda" in hits[0].message
        assert_in_fixtures(hits[0], "noqa-analysis: lambda-to-sink")

    def test_nested_function_to_sink_fires_rep603(self, report):
        hits = [f for f in findings_for(report, "REP603")
                if f.rule == "ship_nested"]
        assert "helper()" in hits[0].message
        assert_in_fixtures(hits[0], "noqa-analysis: nested-to-sink")

    def test_bound_method_to_sink_fires_rep603(self, report):
        hits = [f for f in findings_for(report, "REP603")
                if f.rule == "ship"]
        assert "self.work" in hits[0].message
        assert_in_fixtures(hits[0], "noqa-analysis: method-to-sink")

    def test_data_attribute_to_sink_is_clean(self, report):
        # self.payload is not a method of Shipper, so it pickles fine.
        assert not [f for f in report if f.rule == "ship_data"]


# ----------------------------------------------------------------------
# REP601: pickle provenance on compiled programs
# ----------------------------------------------------------------------
def _build_nested_program():
    @transform(inputs=("xs",), outputs=("est",))
    class nested_prog:
        @rule
        def nested_rule(ctx, xs):  # noqa-analysis: nested-rule
            return float(np.sum(xs))
    return nested_prog


def line_here(snippet: str) -> int:
    with open(THIS_FILE, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if snippet in line and "line_here(" not in line:
                return lineno
    raise AssertionError(f"marker not found: {snippet!r}")


class TestProvenanceFinding:
    def test_nested_rule_fires_rep601_as_info(self):
        report = analyze(_build_nested_program)
        (finding,) = findings_for(report, "REP601")
        assert finding.severity == INFO
        assert "nested_rule" in finding.message
        assert "process backend" in finding.message
        assert finding.location is not None
        assert os.path.abspath(finding.location.filename) == THIS_FILE
        assert finding.location.lineno == \
            line_here("noqa-analysis: nested-rule")

    def test_suite_benchmarks_have_provenance_and_stay_quiet(self):
        report = analyze("preconditioner")
        assert findings_for(report, "REP601") == []


# ----------------------------------------------------------------------
# The serving tier analyzes clean — the CI invariant
# ----------------------------------------------------------------------
class TestServingTierIsClean:
    @pytest.mark.parametrize("name", SERVING_MODULES)
    def test_module_has_no_findings(self, name):
        import importlib
        module = importlib.import_module(name)
        assert list(analyze_modules([module])) == []

    def test_contracts_are_actually_declared(self):
        from repro.serving.engine import ServingEngine
        from repro.serving.frontdoor import FrontDoor
        engine = concurrency_contract_of(ServingEngine)
        assert engine is not None and engine.affinity == "caller"
        assert engine.guards["_programs"] == "_lock"
        front = concurrency_contract_of(FrontDoor)
        assert front is not None and front.affinity == "caller"
        assert front.guards["_queues"] == "_lock"
        assert method_affinity_of(FrontDoor._worker) == "daemon"
        assert required_lock_of(FrontDoor._admit) == "_lock"
        assert required_lock_of(
            ServingEngine._invalidate_digests) == "_lock"


# ----------------------------------------------------------------------
# Contract vocabulary details
# ----------------------------------------------------------------------
class TestContractVocabulary:
    def test_thread_affine_rejects_unknown_affinity(self):
        with pytest.raises(ValueError, match="affinity"):
            thread_affine("sometimes")(type("C", (), {}))

    def test_declare_only_lock_lands_in_lock_set(self):
        @guarded_by("_order_lock")
        @guarded_by("_lock", "_field")
        class Decorated:
            pass
        contract = concurrency_contract_of(Decorated)
        assert contract.locks == ("_lock", "_order_lock")
        assert "_order_lock" not in contract.guards.values()

    def test_decorators_return_the_class_unchanged(self):
        assert isinstance(fx.BadGuard(), fx.BadGuard)
        assert fx.BadGuard.__name__ == "BadGuard"


# ----------------------------------------------------------------------
# Module targets + stale-baseline ratchet on the CLI
# ----------------------------------------------------------------------
class TestModuleTargetCLI:
    def test_dotted_names_are_module_targets(self):
        assert is_module_target("repro.serving.engine")
        assert not is_module_target("preconditioner")

    def test_serving_module_analyzes_clean_via_cli(self):
        lines = []
        assert main(["--analyze", "repro.serving.engine"],
                    log=lines.append) == 0
        assert lines[0].startswith("repro.serving.engine: ok")

    def test_unimportable_module_fails_loudly(self):
        lines = []
        assert main(["--analyze", "repro.serving.nonexistent"],
                    log=lines.append) == 1
        assert any("FAILED" in line for line in lines)

    def test_json_payload_carries_schema_version(self):
        lines = []
        assert main(["--analyze", "--json", "repro.serving.engine"],
                    log=lines.append) == 0
        payload = json.loads("\n".join(lines))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["targets"]["repro.serving.engine"]["ok"]

    def test_stale_baseline_entry_fails_the_gate(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"accepted": [
            {"code": "REP202", "path": "no/such/file.py"}]}))
        lines = []
        assert main(["--analyze", "repro.serving.engine",
                     "--baseline", str(path)], log=lines.append) == 1
        assert any("stale" in line for line in lines)

    def test_stale_entries_surface_in_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        entry = {"code": "REP202", "path": "no/such/file.py"}
        path.write_text(json.dumps({"accepted": [entry]}))
        lines = []
        assert main(["--analyze", "--json", "repro.serving.engine",
                     "--baseline", str(path)], log=lines.append) == 1
        payload = json.loads("\n".join(lines))
        assert payload["stale_baseline"] == [entry]

    def test_matched_entries_are_not_stale(self):
        report = analyze_modules([fx])
        baseline = [{"code": "REP501",
                     "path": "fixtures_concurrency.py"}]
        matched: set = set()
        partition_findings(report, baseline, matched=matched)
        assert stale_entries(baseline, matched) == []

    def test_json_findings_are_ordered_by_file_line_code(self):
        payload = analyze_modules([fx]).to_json()
        assert payload["schema_version"] == SCHEMA_VERSION
        keys = [(f["file"], f["line"], f["code"])
                for f in payload["findings"]]
        assert keys == sorted(keys)
