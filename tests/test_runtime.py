"""Tests for runtime support: cost model, traces, errors."""

from dataclasses import fields

import pytest

from repro.autotuner import ProgramTestHarness
from repro.compiler.compile import compile_program
from repro.errors import AccuracyError, ReproError
from repro.runtime.timing import (
    CostAccumulator,
    CostLimitExceeded,
    Metrics,
)
from repro.runtime.trace import ExecutionTrace, TraceEvent

from tests.conftest import approxmean_inputs, make_approxmean_transform


class TestCostAccumulator:
    def test_accumulates(self):
        cost = CostAccumulator()
        cost.add(3)
        cost.add(4.5)
        assert cost.units == 7.5

    def test_reset(self):
        cost = CostAccumulator()
        cost.add(10)
        cost.reset()
        assert cost.units == 0.0

    def test_limit_enforced(self):
        cost = CostAccumulator(limit=10.0)
        cost.add(9.0)
        with pytest.raises(CostLimitExceeded):
            cost.add(2.0)

    def test_no_limit(self):
        cost = CostAccumulator()
        cost.add(1e18)
        assert cost.units == 1e18


class TestMetrics:
    def test_cost_and_accuracy_only(self):
        # The operation count is the one objective: no wall time rides
        # along, and there is no objective selector.
        assert [f.name for f in fields(Metrics)] == ["cost", "accuracy"]
        metrics = Metrics(cost=5.0)
        assert (metrics.cost, metrics.accuracy) == (5.0, None)
        assert not hasattr(metrics, "objective")


class TestExecutionTrace:
    def test_record_and_filter(self):
        trace = ExecutionTrace()
        trace.record("a", 0, value=1)
        trace.record("b", 1, value=2)
        trace.record("a", 2, value=3)
        assert len(trace) == 3
        assert [e["value"] for e in trace.of_kind("a")] == [1, 3]

    def test_disabled_trace_records_nothing(self):
        trace = ExecutionTrace(enabled=False)
        trace.record("a", 0)
        assert len(trace) == 0

    def test_event_access(self):
        event = TraceEvent("k", 2, {"x": 7})
        assert event["x"] == 7
        assert event.get("y", "default") == "default"
        assert event.depth == 2


class TestHarnessConstruction:
    def test_harness_takes_no_objective(self):
        program, _ = compile_program(make_approxmean_transform())
        with pytest.raises(TypeError, match="objective"):
            ProgramTestHarness(program, approxmean_inputs,
                               objective="cost")

    def test_metric_required(self):
        from repro.lang.transform import Transform
        plain = Transform("plain", inputs=("x",), outputs=("y",))
        plain.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
        program, _ = compile_program(plain)
        with pytest.raises(ReproError):
            ProgramTestHarness(program, lambda n, rng: {"x": 0})


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors
        for name in ("LanguageError", "CompileError", "ConfigError",
                     "TrainingError", "AccuracyError", "ExecutionError"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_accuracy_error_payload(self):
        error = AccuracyError("failed", achieved=0.3, required=0.9)
        assert error.achieved == 0.3
        assert error.required == 0.9
