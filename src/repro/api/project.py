"""The declare → tune → deploy side of the lifecycle façade.

A :class:`Project` pairs one variable-accuracy program with the
training-input generator that feeds its trials, and owns everything
the hand-wired path made the user assemble: compilation, the
:class:`~repro.autotuner.testing.ProgramTestHarness`, the execution
backend (from a spec string like ``"process:4"``), and an optional
trial cache.  :meth:`Project.tune` assembles
:class:`~repro.autotuner.tuner.TunerSettings` from a named preset plus
keyword overrides, drives the tuner, and returns a
:class:`TunedHandle` — frontier inspection, accuracy-targeted runs,
and one-call deployment into an
:class:`~repro.serving.store.ArtifactStore`.

The façade only *delegates*: for the same seed and settings it runs
the identical :class:`~repro.autotuner.tuner.Autotuner` loop the
hand-wired path runs, trial for trial (``tests/test_api.py`` holds the
frontiers and artifact digests equal on serial and process backends).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro.api.presets import fit_sizes, settings_for
from repro.autotuner.session import TuningSession
from repro.autotuner.testing import InputGenerator, ProgramTestHarness
from repro.autotuner.tuner import Autotuner, TunerSettings, TuningResult
from repro.compiler.compile import (
    compile_program,
    compiled_from_factory,
    factory_spec,
)
from repro.compiler.program import CompiledProgram
from repro.compiler.training_info import TrainingInfo
from repro.config.configuration import Configuration
from repro.errors import ConfigError
from repro.lang.transform import Transform
from repro.runtime.backends import (
    ExecutionBackend,
    TrialCache,
    backend_from_spec,
)
from repro.runtime.executor import TunedProgram
from repro.serving.artifact import TunedArtifact
from repro.serving.store import DEFAULT_TAG, ArtifactStore

__all__ = ["Project", "TunedHandle", "Deployment"]

#: Sentinel: "take the value from the benchmark spec".
_FROM_SPEC: Any = object()


class Project:
    """One tunable program plus its training-input source.

    Build one with :meth:`from_transform` (a declared
    :class:`~repro.lang.transform.Transform`, or a module-level
    factory function returning one) or :meth:`from_benchmark` (a
    paper-suite benchmark by name).  The project compiles the program,
    resolves the backend spec, and constructs the test harness lazily
    on first use; use it as a context manager (or call :meth:`close`)
    to release worker pools and persist the trial cache.

    One harness serves every tune of the project, so process pools
    stay warm and paired training inputs are reused across runs; the
    harness's ``trials_run`` counter is therefore cumulative across
    tunes (each :class:`TunedHandle` still reports its own run).
    """

    def __init__(self, program: CompiledProgram,
                 training_info: TrainingInfo,
                 training_inputs: InputGenerator, *,
                 backend: str | ExecutionBackend = "serial",
                 cache: "str | os.PathLike | TrialCache | None" = None,
                 base_seed: int = 0,
                 objective: str = "cost",
                 noise: float = 0.0,
                 cost_limit: float | None = None,
                 default_sizes: Sequence[float] | None = None,
                 log: Callable[[str], None] | None = None):
        if training_inputs is None:
            raise ConfigError(
                f"project for {program.root!r} needs a training-input "
                f"generator: a callable (n, rng) -> inputs mapping")
        if not (math.isfinite(noise) and noise >= 0.0):
            # The harness is built lazily; fail before the first tune.
            raise ValueError(f"noise must be finite and >= 0: {noise}")
        self.program = program
        self.training_info = training_info
        self.training_inputs = training_inputs
        self.backend = backend_from_spec(backend)
        if isinstance(cache, TrialCache):
            self.cache = cache
            self._cache_owned = False
        else:
            # A path persists; None is in memory, as long-lived as the
            # project's one harness.
            self.cache = TrialCache(cache)
            self._cache_owned = True
        self.base_seed = base_seed
        self.objective = objective
        self.noise = noise
        self.cost_limit = cost_limit
        self.default_sizes = (tuple(float(n) for n in default_sizes)
                              if default_sizes is not None else None)
        self.log = log
        self._harness: ProgramTestHarness | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_transform(cls, transform: "Transform | Callable[[], Any]",
                       training_inputs: InputGenerator, *,
                       extras: Sequence[Transform] = (),
                       **kwargs: Any) -> "Project":
        """Project over a declared transform (or a factory building one).

        Passing a module-level zero-argument *factory* function (which
        returns a root transform, or a ``(root, extras)`` tuple)
        instead of a transform instance gives the compiled program
        ``("factory", "module:qualname")`` provenance: it then pickles
        to process-pool workers and reloads from stored artifacts by
        re-running the factory.  A plain transform instance compiles
        without provenance — fine for the serial backend, and for
        process backends when every rule function is a picklable
        module-level callable.
        """
        if isinstance(transform, Transform):
            program, info = compile_program(transform, extras)
        elif callable(transform):
            if extras:
                raise ConfigError(
                    "pass extras by returning (root, extras) from the "
                    "factory, not as a keyword")
            program, info = compiled_from_factory(
                factory_spec(transform))
        else:
            raise ConfigError(
                f"from_transform takes a Transform or a factory "
                f"callable, got {type(transform).__name__}")
        return cls(program, info, training_inputs, **kwargs)

    @classmethod
    def from_benchmark(cls, name: str, *,
                       training_inputs: InputGenerator | None = None,
                       cost_limit: float | None = _FROM_SPEC,
                       **kwargs: Any) -> "Project":
        """Project over a paper-suite benchmark (``"poisson"``, ...).

        The benchmark spec supplies the training-input generator, the
        per-trial cost budget, and the benchmark's own training sizes
        (used whenever tuning settings don't pin ``input_sizes`` —
        important for benchmarks with constrained sizes, e.g. Poisson
        grids of ``2^k - 1``).  Both the generator and the cost limit
        can still be overridden.
        """
        from repro.suite.registry import get_benchmark
        spec = get_benchmark(name)
        program, info = spec.compile()
        if cost_limit is _FROM_SPEC:
            cost_limit = spec.cost_limit
        return cls(program, info,
                   training_inputs if training_inputs is not None
                   else spec.generate,
                   cost_limit=cost_limit,
                   default_sizes=spec.training_sizes,
                   **kwargs)

    # ------------------------------------------------------------------
    # Harness ownership
    # ------------------------------------------------------------------
    @property
    def harness(self) -> ProgramTestHarness:
        """The (lazily built, project-owned) test harness."""
        if self._closed:
            raise ConfigError(
                f"project for {self.program.root!r} is closed")
        if self._harness is None:
            self._harness = ProgramTestHarness(
                self.program, self.training_inputs,
                objective=self.objective, base_seed=self.base_seed,
                noise=self.noise, cost_limit=self.cost_limit,
                backend=self.backend, cache=self.cache)
        return self._harness

    @property
    def trials_run(self) -> int:
        """Trials recorded so far (cumulative across tunes)."""
        return self._harness.trials_run if self._harness else 0

    @property
    def trials_executed(self) -> int:
        """Trials actually executed (excludes trial-cache hits)."""
        return self._harness.trials_executed if self._harness else 0

    def close(self) -> None:
        """Release the backend's worker pools; persist an owned cache.

        A trial cache the project built from a path is saved back to
        that path, so the next project over the same program starts
        warm.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._harness is not None:
            self._harness.close()
        else:
            self.backend.close()
        if self._cache_owned and self.cache.path is not None:
            self.cache.save()

    def __enter__(self) -> "Project":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------
    def settings(self, preset: str | TunerSettings | None = None,
                 **overrides: Any) -> TunerSettings:
        """The fully resolved settings :meth:`tune` would run with.

        Preset + overrides via :func:`repro.api.presets.settings_for`;
        when the project knows benchmark training sizes and nothing
        pinned ``input_sizes``, the benchmark sizes within
        ``[min_input_size, max_input_size]`` are used — benchmark size
        constraints are respected without the user naming a single
        size.
        """
        resolved = settings_for(preset, **overrides)
        # The project's objective is the ambient default: it fills the
        # gap unless the caller pinned one (an explicit override, or a
        # full TunerSettings preset, wins — a conflicting explicit
        # choice then fails loudly at Autotuner construction).
        if "objective" not in overrides \
                and not isinstance(preset, TunerSettings) \
                and resolved.objective != self.objective:
            resolved = replace(resolved, objective=self.objective)
        return fit_sizes(resolved, self.default_sizes,
                         self.program.root)

    def tuner(self, preset: str | TunerSettings | None = None,
              **overrides: Any) -> Autotuner:
        """A hand-holdable :class:`Autotuner` over this project."""
        settings = self.settings(preset, **overrides)
        # The project's log is only the ambient default; a log set
        # explicitly on the settings (or in overrides) wins.
        if settings.log is None and self.log is not None:
            settings = replace(settings, log=self.log)
        return Autotuner(self.program, self.harness, settings)

    def session(self, preset: str | TunerSettings | None = None, *,
                seed_configs: Sequence[Configuration] = (),
                **overrides: Any) -> TuningSession:
        """A resumable tuning session (bounded ``step()`` slices).

        ``seed_configs`` plants existing configurations (e.g. a
        deployed artifact's per-bin choices) into the initial
        population for incremental retuning.
        """
        return self.tuner(preset, **overrides).session(
            seed_configs=seed_configs)

    def tune(self, preset: str | TunerSettings | None = None, *,
             seed_configs: Sequence[Configuration] = (),
             **overrides: Any) -> "TunedHandle":
        """Autotune and return a :class:`TunedHandle`.

        One call replaces the hand-wired ``TunerSettings`` +
        ``ProgramTestHarness`` + ``Autotuner(...).tune()`` assembly;
        the loop that runs is exactly that one.
        """
        session = self.session(preset, seed_configs=seed_configs,
                               **overrides)
        return TunedHandle(self, session.run())

    def __repr__(self) -> str:
        return (f"Project({self.program.root!r}, "
                f"backend={self.backend!r}, "
                f"cache={self.cache!r})")


@dataclass(frozen=True)
class Deployment:
    """Where one :meth:`TunedHandle.deploy` call landed."""

    store: ArtifactStore
    program: str
    tag: str
    path: str
    version: int | None

    def __str__(self) -> str:
        version = f"v{self.version}" if self.version is not None else "?"
        return (f"{self.program}/{self.tag} {version} "
                f"in {self.store.root}")


class TunedHandle:
    """The product of :meth:`Project.tune`: inspect, run, deploy.

    A thin, stateless view over the underlying
    :class:`~repro.autotuner.tuner.TuningResult` (exposed as
    :attr:`result` for the low-level API).
    """

    def __init__(self, project: Project, result: TuningResult):
        self.project = project
        self.result = result
        self._tuned: TunedProgram | None = None

    # ------------------------------------------------------------------
    @property
    def trials_run(self) -> int:
        return self.result.trials_run

    @property
    def unmet_bins(self) -> tuple[float, ...]:
        return self.result.unmet_bins

    def frontier(self, n: float | None = None
                 ) -> list[tuple[float, float, float]]:
        """(bin target, mean accuracy, mean objective) per tuned bin."""
        return self.result.frontier(n)

    def tuned_program(self, confidence: float = 0.95) -> TunedProgram:
        """The deployable program with its per-bin guarantees."""
        return self.result.tuned_program(confidence)

    def bin_guarantees(self, confidence: float = 0.95) -> dict:
        return self.result.bin_guarantees(confidence)

    def run(self, inputs: Mapping[str, Any], n: float, *,
            accuracy: float | None = None,
            bin_target: float | None = None,
            verify: bool = False, seed: int = 0):
        """Run the tuned program at a requested accuracy.

        The library user's call: name an accuracy, never an algorithm.
        Delegates to :meth:`repro.runtime.executor.TunedProgram.run`
        (dynamic bin lookup, optional verify-escalation).
        """
        if self._tuned is None:
            self._tuned = self.tuned_program()
        return self._tuned.run(inputs, n, accuracy=accuracy,
                               bin_target=bin_target, verify=verify,
                               seed=seed)

    def artifact(self, *, confidence: float = 0.95,
                 created_at: str | None = None,
                 metadata: Mapping[str, Any] | None = None
                 ) -> TunedArtifact:
        """Package as a versioned, guarantee-carrying artifact."""
        return self.result.to_artifact(confidence=confidence,
                                       created_at=created_at,
                                       metadata=metadata)

    def deploy(self, store: "ArtifactStore | str | os.PathLike", *,
               tag: str = DEFAULT_TAG,
               confidence: float = 0.95,
               created_at: str | None = None,
               metadata: Mapping[str, Any] | None = None,
               set_latest: bool = True,
               retain: int | None = None) -> Deployment:
        """Save the tuned artifact into a store; returns where it went.

        ``store`` is an :class:`ArtifactStore` or a directory path
        (created on demand, with optional ``retain`` version
        retention).  The returned :class:`Deployment` names the
        program, tag, stored path, and version — everything
        :meth:`repro.api.service.Service.load` needs to start serving.
        """
        if isinstance(store, ArtifactStore):
            if retain is not None:
                raise ConfigError(
                    "retain= only applies when deploy() creates the "
                    "store from a path; this ArtifactStore already "
                    "has its own retention")
        else:
            store = ArtifactStore(store, retain=retain)
        artifact = self.artifact(confidence=confidence,
                                 created_at=created_at,
                                 metadata=metadata)
        # Save unpointed first, so the reported version is the one
        # *this* call wrote even under concurrent deploys; promoting
        # it is then a pointer move to exactly that version.
        path = store.save(artifact, tag, set_latest=False)
        version = ArtifactStore.parse_version(path)
        if set_latest:
            path = store.promote(artifact.program, tag, version)
        return Deployment(store=store, program=artifact.program,
                          tag=tag, path=path, version=version)

    def __repr__(self) -> str:
        return (f"TunedHandle({self.result.program.root!r}, "
                f"bins={[f'{t:g}' for t in self.result.bins]}, "
                f"trials={self.result.trials_run})")
