"""Tests for the experiment harness (tiny budgets)."""

import numpy as np
import pytest

from repro.experiments.common import ExperimentSettings, tune_benchmark
from repro.experiments.figure6 import SUBFIGURES, run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.reporting import format_table, format_value


def tiny_settings(**overrides) -> ExperimentSettings:
    defaults = dict(seed=0, quick=True, rounds_per_size=1,
                    mutation_attempts=4, min_trials=1, max_trials=3,
                    evaluation_trials=1)
    defaults.update(overrides)
    return ExperimentSettings(**defaults)


class TestReporting:
    def test_format_value(self):
        assert format_value(1.234) == "1.23"
        assert format_value(12345.6) == "1.23e+04"
        assert format_value(float("nan")) == "-"
        assert format_value("abc") == "abc"
        assert format_value(0.0) == "0"

    def test_format_table_alignment(self):
        table = format_table(["a", "b"], [[1, 2.5], [30, 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5


class TestFigure7:
    def test_small_grid(self):
        result = run_figure7(sizes=(8, 64), trials=2, seed=1)
        assert result.sizes == (8, 64)
        # Every (accuracy, size) cell resolved or explicitly unmet.
        assert len(result.winners) == len(result.accuracies) * 2
        # The loosest accuracy always has a winner.
        assert result.winners[(1.5, 64)] is not None
        rendered = result.render()
        assert "NF=NextFit" in rendered

    def test_winners_on_frontier(self):
        """A winner is the cheapest algorithm meeting its accuracy."""
        result = run_figure7(sizes=(64,), trials=3, seed=2)
        for (accuracy, n), winner in result.winners.items():
            if winner is None:
                continue
            ratio, cost = result.measured[(winner, n)]
            assert ratio <= accuracy
            for other, (other_ratio, other_cost) in result.measured.items():
                if other[1] == n and other_ratio <= accuracy:
                    assert cost <= other_cost

    def test_distinct_winners_exist(self):
        result = run_figure7(sizes=(8, 128), trials=3, seed=0)
        assert len(result.distinct_winners()) >= 2


class TestFigure6:
    def test_subfigure_mapping_complete(self):
        assert set(SUBFIGURES.values()) == {
            "binpacking", "clustering", "helmholtz", "imagecompression",
            "poisson", "preconditioner"}

    def test_binpacking_speedups_grow_with_size(self):
        result = run_figure6("fig6a", tiny_settings())
        rendered = result.render()
        assert "Figure 6" in rendered
        loosest = result.bins[0]
        speedups = [result.speedup(loosest, n) for n in result.sizes]
        finite = [s for s in speedups if s == s]
        assert finite, "at least one speedup measured"
        assert max(finite) >= 1.0

    def test_reference_bin_fallback(self):
        result = run_figure6("binpacking", tiny_settings())
        assert result.reference_bin in result.bins
        assert result.speedup(result.reference_bin,
                              result.sizes[-1]) == pytest.approx(1.0)


class TestTuneBenchmark:
    def test_clustering_tiny(self):
        spec, program, result = tune_benchmark("clustering",
                                               tiny_settings())
        assert result.trials_run > 0
        assert result.sizes == (16.0, 64.0, 256.0)

    def test_sizes_for_quick_truncates(self):
        from repro.suite import get_benchmark
        settings = tiny_settings()
        spec = get_benchmark("poisson")
        assert settings.sizes_for(spec) == spec.training_sizes[:3]


class TestMain:
    def test_cli_runs_fig7(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestFiguresAreNeverSilent:
    """A failed evaluation is recorded with its error; any other
    exception is a bug in the run and propagates."""

    @staticmethod
    def failing_first(real, error):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise error
            return real(*args, **kwargs)

        return wrapped

    def test_figure6_records_a_failed_cell(self, monkeypatch):
        from repro.experiments import figure6
        from repro.runtime.timing import CostLimitExceeded
        monkeypatch.setattr(figure6, "mean_cost", self.failing_first(
            figure6.mean_cost, CostLimitExceeded("budget exceeded")))
        result = run_figure6("binpacking", tiny_settings())
        [((target, n), error)] = result.failures.items()
        assert error == "CostLimitExceeded: budget exceeded"
        assert result.costs[target][n] != result.costs[target][n]
        assert (f"(x{target:g} failed at n={int(n)}: "
                f"CostLimitExceeded: budget exceeded)") in result.render()

    def test_figure6_propagates_other_errors(self, monkeypatch):
        from repro.experiments import figure6
        monkeypatch.setattr(figure6, "mean_cost", self.failing_first(
            figure6.mean_cost, RuntimeError("a bug")))
        with pytest.raises(RuntimeError, match="a bug"):
            run_figure6("binpacking", tiny_settings())

    @staticmethod
    def stub_helmholtz_tune(monkeypatch, error):
        """Figure 8 over a default Helmholtz config whose first
        execution raises ``error``."""
        from types import SimpleNamespace

        from repro.experiments import figure8
        from repro.suite import get_benchmark
        spec = get_benchmark("helmholtz")
        program, _ = spec.compile()
        program.execute = TestFiguresAreNeverSilent.failing_first(
            program.execute, error)
        result = SimpleNamespace(
            bins=(1.0,), unmet_bins=(),
            best_per_bin={1.0: SimpleNamespace(
                config=program.default_config())})
        monkeypatch.setattr(figure8, "tune_benchmark",
                            lambda name, settings: (spec, program, result))
        return figure8

    def test_figure8_records_a_failed_execution(self, monkeypatch):
        from repro.runtime.timing import CostLimitExceeded
        figure8 = self.stub_helmholtz_tune(
            monkeypatch, CostLimitExceeded("budget exceeded"))
        result = figure8.run_figure8(tiny_settings(), sizes=(3.0, 7.0))
        assert result.failures == {
            (3.0, 1.0): "CostLimitExceeded: budget exceeded"}
        assert set(result.shapes) == {(7.0, 1.0)}
        assert "(10^1 failed at n=3: CostLimitExceeded" in result.render()

    def test_figure8_propagates_other_errors(self, monkeypatch):
        figure8 = self.stub_helmholtz_tune(monkeypatch,
                                           RuntimeError("a bug"))
        with pytest.raises(RuntimeError, match="a bug"):
            figure8.run_figure8(tiny_settings(), sizes=(3.0,))
