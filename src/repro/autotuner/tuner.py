"""The autotuning main loop (Figure 5 of the paper).

::

    population = [...]
    mutators   = [...]
    for input_size in [1, 2, 4, 8, 16, ..., N]:
        testPopulation(population, input_size)
        for round in [1, 2, 3, ..., R]:
            randomMutation(population, mutators, input_size)
            if accuracyTargetsNotReached(population):
                guidedMutation(population, mutators, input_size)
            prune(population)

Input sizes grow exponentially, "which naturally exploits any optimal
substructure inherent to most programs".
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.autotuner.candidate import Candidate
from repro.autotuner.comparison import Comparator, ComparisonSettings
from repro.autotuner.guided import guided_mutation
from repro.autotuner.mutators import MutationFailed, MutatorPool
from repro.autotuner.pruning import prune_population
from repro.autotuner.testing import ProgramTestHarness
from repro.compiler.program import CompiledProgram
from repro.config.configuration import Configuration
from repro.errors import ConfigError, TrainingError

__all__ = ["TunerSettings", "TuningResult", "Autotuner"]


def _exponential_sizes(max_size: float, start: float = 1.0
                       ) -> tuple[float, ...]:
    sizes = []
    n = start
    while n < max_size:
        sizes.append(float(n))
        n *= 2
    sizes.append(float(max_size))
    return tuple(dict.fromkeys(sizes))


@dataclass(frozen=True)
class TunerSettings:
    """Knobs of the autotuner; defaults follow the paper where given."""

    max_input_size: float = 64.0
    min_input_size: float = 2.0
    input_sizes: tuple[float, ...] | None = None  # overrides the sweep
    rounds_per_size: int = 2           # R in Figure 5
    mutation_attempts: int = 8         # random-mutation attempts per round
    k_per_bin: int = 2                 # K kept per accuracy bin
    min_trials: int = 3
    max_trials: int = 25
    #: The operation count is the only objective; the field stays so
    #: existing settings keep their digest.
    objective: str = "cost"
    seed: int = 0
    initial_random: int = 2            # random seed configs beside default
    #: Statistical accuracy guarantees are the paper's default
    #: (Section 3.3): a candidate meets a bin only when the one-sided
    #: confidence bound on its mean accuracy does.  ``None`` falls back
    #: to comparing the sample mean.
    accuracy_confidence: float | None = 0.9
    #: "error" raises TrainingError when accuracy targets stay unmet at
    #: the end of tuning (the paper's behaviour); "warn" records the
    #: failure in the result; "ignore" stays silent.
    require_targets: str = "warn"
    guided_max_evaluations: int = 24
    guided_factor: float = 2.0
    max_tree_levels: int = 4
    keep_most_accurate: bool = True
    #: Section 5.4's copy of a parent's results for sizes a mutation
    #: left unchanged is the trial cache's replay (DESIGN.md,
    #: substitution 6), so only True is accepted; the field stays so
    #: existing settings keep their digest.
    copy_parent_results: bool = True
    #: Add the meta mutators (compound and undo) to the pool.
    include_meta_mutators: bool = True
    lognormal_scaling: bool = True     # False => ablation: uniform scaling
    use_guided_mutation: bool = True   # False => ablation
    #: Weight mutator selection toward the root instance's parameters
    #: (see MutatorPool.prefer); sub-instance parameters only matter
    #: when the current config's recursion reaches them.
    prefer_root_mutators: bool = True
    root_mutator_weight: float = 4.0
    log: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        """Reject malformed settings at construction time.

        A bad knob value used to surface as an opaque failure deep
        inside the tuning loop (or, worse, as an infinite size sweep
        when ``min_input_size`` was non-positive).  Everything below is
        checkable up front, so it is.
        """
        def bad(message: str) -> ConfigError:
            return ConfigError(f"invalid TunerSettings: {message}")

        if self.objective != "cost":
            raise bad(f"unknown objective {self.objective!r}; 'cost' "
                      f"(the operation count) is the only objective")
        if self.copy_parent_results is not True:
            raise bad(f"copy_parent_results must be True, got "
                      f"{self.copy_parent_results!r}: the trial cache "
                      f"replays a parent's unchanged results, so there "
                      f"is nothing to switch off")
        if self.require_targets not in ("error", "warn", "ignore"):
            raise bad(f"require_targets must be 'error', 'warn' or "
                      f"'ignore', got {self.require_targets!r}")
        if self.input_sizes is not None:
            sizes = tuple(float(n) for n in self.input_sizes)
            if not sizes:
                raise bad("input_sizes is empty; give at least one "
                          "training input size")
            if not all(map(math.isfinite, sizes)):
                raise bad(f"input_sizes must be finite, got {sizes}")
            if any(n <= 0 for n in sizes):
                raise bad(f"input_sizes must be positive, got {sizes}")
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise bad(f"input_sizes must be strictly increasing "
                          f"(the sweep grows and the final size is the "
                          f"deployment size), got {sizes}")
        else:
            if not (math.isfinite(self.min_input_size)
                    and math.isfinite(self.max_input_size)):
                raise bad(f"min_input_size and max_input_size must be "
                          f"finite, got {self.min_input_size!r} and "
                          f"{self.max_input_size!r}")
            if self.min_input_size <= 0:
                raise bad(f"min_input_size must be positive, got "
                          f"{self.min_input_size!r} (the exponential "
                          f"sweep doubles from it)")
            if self.min_input_size > self.max_input_size:
                raise bad(f"min_input_size {self.min_input_size!r} "
                          f"exceeds max_input_size "
                          f"{self.max_input_size!r}")
        if self.rounds_per_size < 0:
            raise bad(f"rounds_per_size must be >= 0, got "
                      f"{self.rounds_per_size!r}")
        if self.min_trials < 1:
            raise bad(f"min_trials must be >= 1, got "
                      f"{self.min_trials!r}")
        if self.max_trials < self.min_trials:
            raise bad(f"max_trials {self.max_trials!r} is below "
                      f"min_trials {self.min_trials!r}")
        if self.mutation_attempts < 0:
            raise bad(f"mutation_attempts must be >= 0, got "
                      f"{self.mutation_attempts!r}")
        if self.k_per_bin < 1:
            raise bad(f"k_per_bin must be >= 1, got {self.k_per_bin!r}")
        if self.initial_random < 0:
            raise bad(f"initial_random must be >= 0, got "
                      f"{self.initial_random!r}")
        if self.accuracy_confidence is not None and \
                not 0.0 < self.accuracy_confidence < 1.0:
            raise bad(f"accuracy_confidence must be in (0, 1) or None, "
                      f"got {self.accuracy_confidence!r}")
        if self.guided_max_evaluations < 1:
            raise bad(f"guided_max_evaluations must be >= 1, got "
                      f"{self.guided_max_evaluations!r}")
        # Guided mutation scales a variable by the factor toward its
        # hinted direction and widens the step up to factor**4: a factor
        # at or below 1 steps the wrong way (or not at all) and never
        # widens.
        if not (math.isfinite(self.guided_factor)
                and self.guided_factor > 1.0):
            raise bad(f"guided_factor must be finite and > 1, got "
                      f"{self.guided_factor!r}")

    def sizes(self) -> tuple[float, ...]:
        if self.input_sizes is not None:
            return tuple(float(n) for n in self.input_sizes)
        return _exponential_sizes(self.max_input_size, self.min_input_size)

    def digest(self) -> str:
        """Stable content digest of the tuning settings.

        Recorded in tuned-artifact metadata so a deployed artifact can
        be traced back to the exact knob values that produced it.  The
        (unpicklable, behaviour-irrelevant) ``log`` callback is
        excluded.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "log"}
        text = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def comparison_settings(self) -> ComparisonSettings:
        return ComparisonSettings(min_trials=self.min_trials,
                                  max_trials=self.max_trials)


@dataclass
class TuningResult:
    """Outcome of one autotuning run."""

    program: CompiledProgram
    bins: tuple[float, ...]
    best_per_bin: dict[float, Candidate]
    population: list[Candidate]
    sizes: tuple[float, ...]
    unmet_bins: tuple[float, ...]
    trials_run: int
    settings: TunerSettings | None = field(default=None, repr=False)

    def config_for(self, target: float) -> Configuration:
        try:
            return self.best_per_bin[target].config
        except KeyError:
            raise TrainingError(
                f"no tuned configuration for accuracy bin {target:g} "
                f"(unmet bins: {self.unmet_bins})") from None

    def frontier(self, n: float | None = None
                 ) -> list[tuple[float, float, float]]:
        """(bin target, mean accuracy, mean objective) per tuned bin."""
        n = n if n is not None else self.sizes[-1]
        rows = []
        for target in self.bins:
            candidate = self.best_per_bin.get(target)
            if candidate is None:
                continue
            rows.append((target, candidate.results.mean_accuracy(n),
                         candidate.results.mean_objective(n)))
        return rows

    def bin_guarantees(self, confidence: float = 0.95,
                       n: float | None = None) -> dict:
        """Per-bin statistical guarantees from the training trials.

        For each tuned bin, the off-line guarantee of Section 3.3: a
        one-sided confidence bound on the winning candidate's mean
        accuracy at size ``n`` (the largest training size by default),
        tested against the bin's target.
        """
        from repro.runtime.guarantees import statistical_guarantee
        metric = self.program.root_transform.accuracy_metric
        n = float(n) if n is not None else self.sizes[-1]
        guarantees = {}
        for target, candidate in self.best_per_bin.items():
            accuracies = candidate.results.accuracies(n)
            if accuracies:
                guarantees[target] = statistical_guarantee(
                    accuracies, target, metric, confidence)
        return guarantees

    def tuned_program(self, confidence: float = 0.95):
        """Package the per-bin best configurations for deployment.

        The returned :class:`~repro.runtime.executor.TunedProgram`
        carries each bin's training-time statistical guarantee, so
        saving it (or serving it) preserves what tuning promised.
        """
        from repro.runtime.executor import TunedProgram
        configs = {target: candidate.config
                   for target, candidate in self.best_per_bin.items()}
        return TunedProgram(self.program, configs,
                            guarantees=self.bin_guarantees(confidence))

    def to_artifact(self, *, created_at: str | None = None,
                    confidence: float = 0.95,
                    metadata: Mapping[str, Any] | None = None):
        """Package this tuning run as a deployable
        :class:`~repro.serving.artifact.TunedArtifact`.

        The artifact bundles the per-bin configurations, each bin's
        statistical guarantee, and tuning metadata — seed and settings
        digest (when the result still knows its settings), trial
        count, training sizes, unmet bins, and ``created_at``, a
        timestamp string supplied by the caller.
        """
        from repro.serving.artifact import TunedArtifact
        info: dict[str, Any] = {
            "trials_run": self.trials_run,
            "training_sizes": [float(n) for n in self.sizes],
            "unmet_bins": [float(t) for t in self.unmet_bins],
            "guarantee_confidence": float(confidence),
        }
        if self.settings is not None:
            info["seed"] = self.settings.seed
            info["settings_digest"] = self.settings.digest()
        if created_at is not None:
            info["created_at"] = str(created_at)
        if metadata:
            info.update(metadata)
        return TunedArtifact.from_tuned(self.tuned_program(confidence),
                                        metadata=info)


class Autotuner:
    """The accuracy-aware genetic autotuner."""

    def __init__(self, program: CompiledProgram,
                 harness: ProgramTestHarness,
                 settings: TunerSettings | None = None,
                 pool: MutatorPool | None = None):
        self.program = program
        self.harness = harness
        self.settings = settings or TunerSettings()
        self.metric = harness.metric
        self.bins = program.root_transform.accuracy_bins
        if not self.bins:
            raise TrainingError(
                f"transform {program.root!r} declares no accuracy bins")
        if pool is None:
            pool = MutatorPool.from_space(
                program.space,
                max_tree_levels=self.settings.max_tree_levels,
                include_meta=self.settings.include_meta_mutators,
                lognormal_scaling=self.settings.lognormal_scaling)
            if self.settings.prefer_root_mutators and len(pool):
                pool.prefer(f"{program.root}@main.",
                            self.settings.root_mutator_weight)
        self.pool = pool
        self.comparator = Comparator(harness,
                                     self.settings.comparison_settings())

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.settings.log is not None:
            self.settings.log(message)

    def _initial_population(self, rng: np.random.Generator
                            ) -> list[Candidate]:
        population = [Candidate(self.program.default_config())]
        for _ in range(self.settings.initial_random):
            population.append(Candidate(self.program.random_config(rng)))
        return population

    def _unmet_targets(self, population: Sequence[Candidate], n: float
                       ) -> tuple[float, ...]:
        unmet = []
        for target in self.bins:
            if not any(c.meets_accuracy(n, target, self.metric,
                                        self.settings.accuracy_confidence)
                       for c in population):
                unmet.append(target)
        return tuple(unmet)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _test_population(self, population: Sequence[Candidate], n: float
                         ) -> None:
        # One batch for the whole population: parallel backends see
        # every missing trial at once.
        self.harness.ensure_trials_batch(
            [(candidate, n, self.settings.min_trials)
             for candidate in population])

    def _random_mutation(self, population: list[Candidate], n: float,
                         rng: np.random.Generator) -> None:
        # Phase 1: generate all children for this round.  Parents are
        # drawn from the population as of round start; accepted
        # children join it only after the compare-and-keep pass.
        children: list[tuple[Candidate, Candidate]] = []
        for _ in range(self.settings.mutation_attempts):
            parent = population[int(rng.integers(0, len(population)))]
            mutator = self.pool.random(parent, n, rng)
            if mutator is None:
                continue
            try:
                config = mutator.mutate(parent, n, rng)
            except MutationFailed:
                continue
            children.append((Candidate(config, parent=parent,
                                       step=mutator.name), parent))
        # Phase 2: every child's initial trials in one backend batch.
        self.harness.ensure_trials_batch(
            [(child, n, self.settings.min_trials)
             for child, _ in children])
        # Phase 3: compare-and-keep (adaptive top-up trials flow
        # through the same batch interface, one at a time).
        for child, parent in children:
            better_time = self.comparator.compare(child, parent, n,
                                                  "objective") > 0
            better_accuracy = self.comparator.compare(child, parent, n,
                                                      "accuracy") > 0
            if better_time or better_accuracy:
                population.append(child)

    def _guided_mutation(self, population: list[Candidate], n: float
                         ) -> None:
        unmet = self._unmet_targets(population, n)
        if not unmet:
            return
        added = guided_mutation(
            population, self.harness, self.program.space, unmet, n,
            self.metric,
            min_trials=self.settings.min_trials,
            max_evaluations=self.settings.guided_max_evaluations,
            factor=self.settings.guided_factor,
            accuracy_confidence=self.settings.accuracy_confidence)
        self._log(f"guided mutation at n={n:g}: {len(added)} candidates "
                  f"added toward {unmet}")

    def _prune(self, population: list[Candidate], n: float
               ) -> list[Candidate]:
        return prune_population(
            population, self.bins, self.settings.k_per_bin,
            self.comparator, n, self.metric,
            accuracy_confidence=self.settings.accuracy_confidence,
            keep_most_accurate=self.settings.keep_most_accurate)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def session(self, *, seed_configs: Sequence[Configuration] = ()
                ) -> "TuningSession":
        """A fresh resumable :class:`~repro.autotuner.session.
        TuningSession` over this tuner.

        ``seed_configs`` plants existing configurations (e.g. a
        deployed artifact's per-bin choices) into the initial
        population for incremental retuning.
        """
        from repro.autotuner.session import TuningSession
        return TuningSession(self, seed_configs=seed_configs)

    def tune(self) -> TuningResult:
        """Run the Figure-5 loop to completion.

        A thin driver over :meth:`session`: the loop itself lives in
        :class:`~repro.autotuner.session.TuningSession`, which executes
        the identical phase sequence (and consumes the identical RNG
        stream) the monolithic loop did — for a fixed seed the result
        is bit-identical.
        """
        return self.session().run()
