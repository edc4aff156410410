"""The serve → observe → adapt side of the lifecycle façade.

A production deployment wires seven objects together:
``ArtifactStore`` + ``FrontDoor`` (the program registry) + its
``ServingEngine`` shards + ``ServingTelemetry`` + ``DriftDetector`` +
``RetuneController`` + a harness factory.  A
:class:`Service` assembles all of them from one declarative
:class:`ServicePolicy` and a store, and exposes the lifecycle verbs:

* :meth:`Service.load` — open the store, build the front door (which
  owns the telemetry) and its shard engines (backends from a spec
  string), register programs;
* :meth:`Service.serve` / :meth:`Service.request` — traffic;
* :meth:`Service.stats` / :meth:`Service.snapshot` — observability;
* :meth:`Service.poll` and :meth:`Service.start_adaptive` /
  :meth:`Service.stop_adaptive` — the drift → background retune →
  shadow → promote loop, driven synchronously (deterministic tests)
  or from a daemon thread, at any shard count.

Every constituent stays reachable (:attr:`frontdoor`, :attr:`telemetry`,
:attr:`store`, :attr:`controller`) — the façade assembles the
low-level API, it does not wall it off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.api.presets import fit_sizes, settings_for
from repro.autotuner.testing import InputGenerator, ProgramTestHarness
from repro.autotuner.tuner import TunerSettings
from repro.compiler.program import CompiledProgram
from repro.errors import ConfigError
from repro.runtime.backends import (
    ExecutionBackend,
    ShardPlan,
    backend_from_spec,
)
from repro.runtime.policy import SheddingPolicy
from repro.serving.controller import RetuneController
from repro.serving.engine import (
    DEFAULT_BATCH_SIZE,
    ServeRequest,
    ServeResponse,
)
from repro.serving.frontdoor import (
    DEFAULT_QUEUE_LIMIT,
    FrontDoor,
    FrontDoorStats,
)
from repro.serving.store import DEFAULT_TAG, ArtifactStore
from repro.serving.telemetry import (
    DEFAULT_WINDOW,
    BinSnapshot,
    ServingTelemetry,
)

__all__ = ["ServicePolicy", "Service"]

#: Base seed of every retune harness.
RETUNE_BASE_SEED = 11


@dataclass(frozen=True)
class ServicePolicy:
    """Everything declarative about how a service runs.

    The serving half (backend spec, batching, windows) is always
    active; the adaptive half only matters once :meth:`Service.poll`
    or :meth:`Service.start_adaptive` is used, and requires ``retune``
    to name tuner settings (a preset name like ``"smoke"`` or a full
    :class:`TunerSettings`) for background retunes.

    Traffic always flows through a
    :class:`~repro.serving.frontdoor.FrontDoor`.  A ``backend`` of
    ``"async:<shards>x<workers>"`` gives it that many shards; any
    other backend (a spec string or an
    :class:`~repro.runtime.backends.ExecutionBackend` instance) is its
    one shard.
    """

    # --- serving -----------------------------------------------------
    backend: str | ExecutionBackend = "serial"
    batch_size: int = DEFAULT_BATCH_SIZE
    telemetry_window: int = DEFAULT_WINDOW
    tag: str = DEFAULT_TAG
    #: Version retention when the service creates the store from a path.
    retain: int | None = None
    # --- front door -----------------------------------------------
    #: Admission-queue bound per shard (the front door's one queue
    #: holds ``queue_limit`` times the shard count).
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: Per-request deadline in seconds (None = no deadline); also the
    #: shed controller's p95 budget when shedding is on.
    deadline: float | None = None
    #: Override the per-shard backend of an ``async:`` plan (e.g.
    #: ``"serial"`` on single-core hosts); None uses the plan's
    #: ``process:<workers>``.
    shard_backend: str | None = None
    #: Shed accuracy (cheaper bins) under overload; False only rejects.
    shedding: bool = True
    # --- adaptive loop ----------------------------------------------
    #: Settings for background retunes: a preset name, a TunerSettings,
    #: or None (adaptive loop disabled).  Retune harnesses run serially,
    #: so retunes never contend with serving.
    retune: str | TunerSettings | None = None
    slice_trials: int = 48
    shadow_fraction: float = 0.5
    min_shadow_samples: int = 8
    min_drift_samples: int = 16
    drift_confidence: float = 0.9

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.telemetry_window < 1:
            raise ConfigError("telemetry_window must be >= 1")
        if self.slice_trials < 1:
            raise ConfigError("slice_trials must be >= 1")
        if not 0.0 < self.shadow_fraction <= 1.0:
            raise ConfigError("shadow_fraction must be in (0, 1]")
        if self.queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if self.deadline is not None and not self.deadline > 0:  # NaN too
            raise ConfigError("deadline must be positive (or None)")

    def shard_plan(self) -> ShardPlan | None:
        """The parsed :class:`ShardPlan` when ``backend`` is an
        ``async:<shards>x<workers>`` spec, else None."""
        if isinstance(self.backend, str) \
                and self.backend.strip().lower().startswith("async"):
            return backend_from_spec(self.backend, allow_sharded=True)
        return None

    def shedding_policy(self) -> SheddingPolicy | None:
        """The front door's shed controller (None when disabled).

        The request deadline doubles as the p95 budget: once observed
        end-to-end p95 approaches the deadline, shedding kicks in
        *before* requests start expiring.
        """
        if not self.shedding:
            return None
        return SheddingPolicy(p95_budget=self.deadline)

    def retune_settings(self) -> TunerSettings:
        if self.retune is None:
            raise ConfigError(
                "the adaptive loop needs ServicePolicy.retune: a "
                "settings preset name (e.g. 'smoke') or TunerSettings "
                "for background retunes")
        return settings_for(self.retune)


class Service:
    """A running accuracy-aware service assembled from one policy.

    Traffic flows through the :attr:`frontdoor` tier: one shard per
    ``async:`` plan shard, or a single shard on any other backend.
    """

    def __init__(self, store: ArtifactStore, frontdoor: FrontDoor,
                 policy: ServicePolicy, *,
                 training_inputs: "InputGenerator | Mapping[str, InputGenerator] | None" = None,
                 log: Callable[[str], None] | None = None):
        self.store = store
        self.frontdoor = frontdoor
        self.policy = policy
        self.training_inputs = training_inputs
        self.log = log
        self._controller: RetuneController | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, store: "ArtifactStore | str | os.PathLike", *,
             program: str | None = None,
             programs: Sequence[str] = (),
             policy: ServicePolicy | None = None,
             compiled: CompiledProgram | None = None,
             training_inputs: "InputGenerator | Mapping[str, InputGenerator] | None" = None,
             log: Callable[[str], None] | None = None) -> "Service":
        """Open a store and stand the serving stack up around it.

        ``program``/``programs`` name what to serve; with neither, every
        program in the store is registered.  ``compiled`` attaches the
        (single) program to an already-compiled instance instead of
        rebuilding from artifact provenance.  ``training_inputs`` — one
        generator, or a mapping of program name to generator — feeds
        background-retune harnesses; programs whose artifacts carry
        benchmark provenance fall back to the benchmark's own
        generator, so for them the adaptive loop works with no extra
        wiring.
        """
        policy = policy if policy is not None else ServicePolicy()
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store, retain=policy.retain)
        names = list(dict.fromkeys([*programs, *(
            [program] if program is not None else [])]))
        if not names:
            # Auto-discovery is tag-aware: a program stored only under
            # some other tag must not break loading the rest.
            names = [name for name in store.list_programs()
                     if policy.tag in store.list_tags(name)]
        if not names:
            stored = store.list()
            if stored:
                raise ConfigError(
                    f"store {store.root} holds no artifact under tag "
                    f"{policy.tag!r} and no programs were named "
                    f"(stored: {stored}); set ServicePolicy.tag or "
                    f"deploy under {policy.tag!r}")
            raise ConfigError(
                f"store {store.root} holds no programs and none were "
                f"named; deploy an artifact first")
        if compiled is not None and len(names) != 1:
            raise ConfigError(
                "compiled= attaches one program; name exactly one "
                "(got {})".format(names))
        plan, shard_backend = policy.shard_plan(), policy.shard_backend
        if plan is None:
            # Any other backend is the one shard's own.
            plan, shard_backend = ShardPlan(1, 1), policy.backend
        frontdoor = FrontDoor.build(
            plan, store=store, shard_backend=shard_backend,
            batch_size=policy.batch_size,
            telemetry=ServingTelemetry(window=policy.telemetry_window),
            queue_limit=policy.queue_limit, deadline=policy.deadline,
            shedding=policy.shedding_policy())
        for name in names:
            frontdoor.register(name, store.load_tuned(
                name, policy.tag, compiled=compiled))
        return cls(store, frontdoor, policy,
                   training_inputs=training_inputs, log=log)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def programs(self) -> tuple[str, ...]:
        return self.frontdoor.programs

    def _default_program(self) -> str:
        names = self.frontdoor.programs
        if len(names) != 1:
            raise ConfigError(
                f"service hosts {list(names)}; name the program "
                f"explicitly")
        return names[0]

    def request(self, inputs: Mapping[str, Any], n: float, *,
                accuracy: float | None = None, verify: bool = False,
                seed: int = 0, program: str | None = None
                ) -> ServeRequest:
        """Build a :class:`ServeRequest` against this service.

        ``program`` defaults to the single hosted program.
        """
        return ServeRequest(
            program=program if program is not None
            else self._default_program(),
            inputs=inputs, n=float(n), accuracy=accuracy,
            verify=verify, seed=seed)

    def serve(self, requests: Sequence[ServeRequest]
              ) -> list[ServeResponse]:
        """Serve a batch; responses align positionally with requests."""
        return self.frontdoor.serve(requests)

    def serve_one(self, request: ServeRequest) -> ServeResponse:
        return self.frontdoor.serve([request])[0]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> FrontDoorStats:
        return self.frontdoor.stats()

    @property
    def telemetry(self) -> ServingTelemetry:
        """The front door's telemetry: every batch it served."""
        return self.frontdoor.telemetry

    def snapshot(self, target: float, program: str | None = None
                 ) -> BinSnapshot:
        """Telemetry snapshot of one (program, bin) window."""
        return self.telemetry.snapshot(
            program if program is not None
            else self._default_program(), target)

    # ------------------------------------------------------------------
    # The adaptive loop
    # ------------------------------------------------------------------
    @staticmethod
    def _benchmark_spec(compiled: CompiledProgram):
        """The suite spec behind a benchmark-provenance program."""
        if compiled.provenance is not None \
                and compiled.provenance[0] == "benchmark":
            from repro.suite.registry import get_benchmark
            return get_benchmark(compiled.provenance[1])
        return None

    def _generator_for(self, name: str,
                       compiled: CompiledProgram) -> InputGenerator:
        source = self.training_inputs
        if isinstance(source, Mapping):
            source = source.get(name)
        if source is not None:
            return source
        # No explicit generator: benchmark-provenance programs retune
        # against their benchmark's own generator.
        spec = self._benchmark_spec(compiled)
        if spec is not None:
            return spec.generate
        raise ConfigError(
            f"no training-input generator for {name!r}: pass "
            f"training_inputs= to Service.load (background retunes "
            f"must train on something)")

    def _harness_factory(self, name: str, compiled: CompiledProgram
                         ) -> ProgramTestHarness:
        # Called by the controller per retune; each harness gets its
        # own serial backend (the controller closes it with the
        # harness).  Retunes run under the per-trial budget the
        # original tuning ran under, when the program knows one.
        spec = self._benchmark_spec(compiled)
        return ProgramTestHarness(
            compiled, self._generator_for(name, compiled),
            base_seed=RETUNE_BASE_SEED,
            cost_limit=spec.cost_limit if spec is not None else None)

    def _settings_factory(self, name: str, compiled: CompiledProgram
                          ) -> TunerSettings:
        # Per-program settings: when the policy's retune settings
        # leave input_sizes unpinned, benchmark-provenance programs
        # train on their own (possibly constrained) sizes.
        settings = self.policy.retune_settings()
        spec = self._benchmark_spec(compiled)
        return fit_sizes(settings,
                         spec.training_sizes if spec is not None
                         else None, name)

    @property
    def controller(self) -> RetuneController:
        """The retune controller (built on first use)."""
        if self._controller is None:
            policy = self.policy
            # Fail fast on a missing/bad policy — a crash inside
            # _launch_retunes would otherwise fail every poll tick.
            policy.retune_settings()
            self._controller = RetuneController(
                self.frontdoor, self.store,
                harness_factory=self._harness_factory,
                settings=self._settings_factory, tag=policy.tag,
                slice_trials=policy.slice_trials,
                shadow_fraction=policy.shadow_fraction,
                min_shadow_samples=policy.min_shadow_samples,
                min_drift_samples=policy.min_drift_samples,
                drift_confidence=policy.drift_confidence,
                log=self.log)
        return self._controller

    @property
    def events(self) -> list[str]:
        """The controller's audit trail (empty before first poll)."""
        if self._controller is None:
            return []
        return self._controller.events

    def check_drift(self):
        return self.controller.check_drift()

    def poll(self) -> list[str]:
        """One synchronous adaptive tick (drift → slice → judge)."""
        return self.controller.poll()

    def adaptive_status(self):
        return self.controller.status()

    def start_adaptive(self) -> None:
        """Run the adaptive loop in a daemon thread."""
        self.controller.start()

    def stop_adaptive(self) -> None:
        if self._controller is not None:
            self._controller.stop()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the adaptive loop, close retunes and the front door."""
        if self._closed:
            return
        self._closed = True
        if self._controller is not None:
            self._controller.close()
        self.frontdoor.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Service(programs={list(self.frontdoor.programs)}, "
                f"tier={self.frontdoor!r}, "
                f"adaptive={self._controller is not None})")
