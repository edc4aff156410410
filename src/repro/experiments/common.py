"""Shared plumbing for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.autotuner.tuner import TuningResult
from repro.compiler.program import CompiledProgram
from repro.rng import generator_for
from repro.suite.registry import BenchmarkSpec, get_benchmark

__all__ = ["ExperimentSettings", "tune_benchmark", "mean_cost"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Scaled-down-but-faithful training defaults for experiments.

    ``quick=True`` shrinks sizes and budgets further for CI runs; the
    sweep shapes are unchanged.
    """

    seed: int = 0
    quick: bool = False
    rounds_per_size: int = 3
    mutation_attempts: int = 20
    min_trials: int = 2
    max_trials: int = 6
    evaluation_trials: int = 3
    k_per_bin: int = 2

    def tuner_settings(self, sizes: tuple[float, ...]) -> TunerSettings:
        return TunerSettings(
            input_sizes=sizes,
            rounds_per_size=2 if self.quick else self.rounds_per_size,
            mutation_attempts=(8 if self.quick
                               else self.mutation_attempts),
            min_trials=self.min_trials,
            max_trials=self.max_trials,
            seed=self.seed,
            initial_random=2 if self.quick else 4,
            guided_max_evaluations=12 if self.quick else 24,
            k_per_bin=self.k_per_bin,
        )

    def sizes_for(self, spec: BenchmarkSpec) -> tuple[float, ...]:
        sizes = spec.training_sizes
        if self.quick and len(sizes) > 3:
            return sizes[:3]
        return sizes


def tune_benchmark(name: str, settings: ExperimentSettings, *,
                   backend=None, cache=None
                   ) -> tuple[BenchmarkSpec, CompiledProgram, TuningResult]:
    """Compile and autotune one suite benchmark.

    ``backend`` (an :class:`~repro.runtime.backends.ExecutionBackend`)
    and ``cache`` (a :class:`~repro.runtime.backends.TrialCache`) are
    forwarded to the test harness, so experiment sweeps can run trials
    in parallel and reuse measurements across repeated tunings (without
    one, the harness keeps its own in-memory cache for this tune).
    """
    spec = get_benchmark(name)
    program, _ = spec.compile()
    sizes = settings.sizes_for(spec)
    harness = ProgramTestHarness(program, spec.generate,
                                 base_seed=settings.seed,
                                 cost_limit=spec.cost_limit,
                                 backend=backend, cache=cache)
    tuner = Autotuner(program, harness,
                      settings.tuner_settings(sizes))
    return spec, program, tuner.tune()


def mean_cost(program: CompiledProgram, spec: BenchmarkSpec, config,
              n: float, *, trials: int, seed: int) -> float:
    """Mean execution cost of ``config`` on fresh evaluation inputs."""
    total = 0.0
    for trial in range(trials):
        rng = generator_for(seed, "eval-input", n, trial)
        inputs = spec.generate(int(n), rng)
        result = program.execute(inputs, n, config,
                                 seed=seed + 1000 + trial)
        total += result.cost
    return total / trials
