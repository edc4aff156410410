"""Figure 8: multigrid cycle shapes of the tuned Helmholtz solver.

"Resulting cycle shapes for Helmholtz after tuning for different input
data sizes and required accuracies."  The tuned configuration for each
(size, accuracy-bin) pair is executed with tracing enabled and the
``mg`` events are rendered as an ASCII cycle diagram
(:mod:`repro.multigrid.cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentSettings, tune_benchmark
from repro.multigrid.cycles import CycleShape, extract_cycle_shape, \
    render_cycle
from repro.rng import generator_for
from repro.runtime.backends.base import TRIAL_FAILURES

__all__ = ["Figure8Result", "run_figure8"]


@dataclass
class Figure8Result:
    sizes: tuple[float, ...]
    bins: tuple[float, ...]
    #: shapes[(n, bin)] = CycleShape
    shapes: dict[tuple[float, float], CycleShape]
    unmet_bins: tuple[float, ...]
    #: failures[(n, bin)] = error text of an execution that failed
    failures: dict[tuple[float, float], str] = field(default_factory=dict)

    def render(self) -> str:
        blocks = ["Figure 8: tuned Helmholtz cycle shapes "
                  "(o=relax, D=direct, S=iterative, \\/=grid moves)"]
        for n in self.sizes:
            for target in self.bins:
                shape = self.shapes.get((n, target))
                if shape is None:
                    continue
                blocks.append(f"\n-- input size n={int(n)}, accuracy "
                              f"10^{target:g} --")
                blocks.append(render_cycle(shape))
        if self.unmet_bins:
            blocks.append(f"\n(unmet accuracy bins: {self.unmet_bins})")
        for (n, target), error in self.failures.items():
            blocks.append(f"(10^{target:g} failed at n={int(n)}: {error})")
        return "\n".join(blocks)


def run_figure8(settings: ExperimentSettings | None = None,
                sizes: tuple[float, ...] | None = None) -> Figure8Result:
    settings = settings or ExperimentSettings()
    spec, program, result = tune_benchmark("helmholtz", settings)
    if sizes is None:
        sizes = settings.sizes_for(spec)
    shapes: dict[tuple[float, float], CycleShape] = {}
    failures: dict[tuple[float, float], str] = {}
    for n in sizes:
        rng = generator_for(settings.seed, "fig8-input", n)
        inputs = spec.generate(int(n), rng)
        for target, candidate in result.best_per_bin.items():
            try:
                execution = program.execute(inputs, n, candidate.config,
                                            seed=settings.seed,
                                            collect_trace=True)
            except TRIAL_FAILURES as exc:
                failures[(n, target)] = f"{type(exc).__name__}: {exc}"
                continue
            shapes[(n, target)] = extract_cycle_shape(
                execution.trace, int(n))
    return Figure8Result(sizes=tuple(sizes), bins=result.bins,
                         shapes=shapes, unmet_bins=result.unmet_bins,
                         failures=failures)
