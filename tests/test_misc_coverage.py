"""Unit tests for remaining small surfaces: result objects, rendering,
instance key namespacing, and experiment result containers."""

import numpy as np
import pytest

from repro.compiler.program import ExecutionResult, Instance
from repro.experiments.figure6 import Figure6Result
from repro.experiments.figure8 import Figure8Result
from repro.experiments.table1 import Table1Result
from repro.lang.transform import Transform
from repro.multigrid.cycles import CycleShape, render_cycle
from repro.runtime.timing import Metrics
from repro.runtime.trace import ExecutionTrace


def make_instance(prefix="t@0.5", bin_target=0.5):
    transform = Transform("t", inputs=("x",), outputs=("y",))
    transform.rule(outputs=("y",), inputs=("x",))(lambda ctx, x: x)
    return Instance(prefix=prefix, transform=transform,
                    bin_target=bin_target, schedule=())


class TestInstanceKeys:
    def test_namespacing(self):
        instance = make_instance()
        assert instance.key("k") == "t@0.5.k"
        assert instance.choice_key("site") == "t@0.5.rule.site"
        assert instance.call_bin_key("sub") == "t@0.5.call.sub.bin"
        assert instance.order_key("r") == "t@0.5.order.r"

    def test_bin_target_carried(self):
        assert make_instance().bin_target == 0.5


class TestExecutionResult:
    def test_properties(self):
        result = ExecutionResult(outputs={"y": 1},
                                 metrics=Metrics(cost=5),
                                 trace=ExecutionTrace())
        assert result.cost == 5


class TestFigure6Result:
    def make(self):
        return Figure6Result(
            benchmark="binpacking", sizes=(8.0, 32.0),
            bins=(1.5, 1.1, 1.01),
            costs={1.5: {8.0: 10.0, 32.0: 20.0},
                   1.1: {8.0: 40.0, 32.0: 200.0}},
            unmet_bins=(1.01,))

    def test_reference_falls_back_to_met_bin(self):
        assert self.make().reference_bin == 1.1

    def test_speedups(self):
        result = self.make()
        assert result.speedup(1.5, 8.0) == pytest.approx(4.0)
        assert result.speedup(1.5, 32.0) == pytest.approx(10.0)
        assert result.speedup(1.01, 8.0) != result.speedup(1.01, 8.0)

    def test_render_mentions_unmet(self):
        rendered = self.make().render()
        assert "unmet" in rendered
        assert "x1.5" in rendered

    def test_no_bins_tuned_raises(self):
        result = Figure6Result(benchmark="x", sizes=(8.0,),
                               bins=(0.5,), costs={}, unmet_bins=(0.5,))
        with pytest.raises(ValueError):
            result.reference_bin


class TestTable1Result:
    def test_render(self):
        result = Table1Result(
            n=2048.0, optimal_k=45,
            rows=((0.1, 4, "random", "once"),
                  (0.95, 46, "k-means++", "100% stabilize")),
            unmet_bins=())
        rendered = result.render()
        assert "k optimal = 45" in rendered
        assert "k-means++" in rendered
        assert "100% stabilize" in rendered


class TestFigure8Result:
    def test_render_includes_sizes_and_legend(self):
        shape = CycleShape(steps=(("relax", 0), ("descend", 1),
                                  ("direct", 1), ("ascend", 0)),
                           top_size=7)
        result = Figure8Result(sizes=(7.0,), bins=(1.0,),
                               shapes={(7.0, 1.0): shape},
                               unmet_bins=())
        rendered = result.render()
        assert "n=7" in rendered
        assert "10^1" in rendered
        assert "D" in rendered

    def test_missing_shapes_skipped(self):
        result = Figure8Result(sizes=(7.0,), bins=(1.0, 3.0),
                               shapes={}, unmet_bins=(3.0,))
        assert "unmet" in result.render()


class TestCycleShapeCounts:
    def test_counts(self):
        shape = CycleShape(steps=(("relax", 0), ("relax", 1),
                                  ("direct", 2)), top_size=15)
        assert shape.counts() == {"relax": 2, "direct": 1}
        assert shape.depth == 2

    def test_render_level_labels_follow_grid_halving(self):
        shape = CycleShape(steps=(("relax", 0), ("relax", 1),
                                  ("relax", 2)), top_size=15)
        rendered = render_cycle(shape)
        assert "n=  15" in rendered
        assert "n=   7" in rendered
        assert "n=   3" in rendered
