"""Shared settings for the benchmark harness.

Every ``bench_fig*`` / ``bench_table*`` file regenerates one table or
figure of the paper.  By default the harness runs in a scaled-down mode
sized for CI; set ``REPRO_BENCH_FULL=1`` for the full sweeps (several
minutes per figure).  Results are printed so ``pytest benchmarks/
--benchmark-only -s`` shows the regenerated rows/series next to the
timings.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.common import ExperimentSettings

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def experiment_settings() -> ExperimentSettings:
    if FULL:
        return ExperimentSettings(seed=3, quick=False)
    return ExperimentSettings(seed=3, quick=True, min_trials=1,
                              max_trials=3, evaluation_trials=2)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)


def median_iqr(values) -> tuple[float, float]:
    """Median and interquartile range of repeated measurements."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)
