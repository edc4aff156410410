"""Background retuning: drift → incremental retune → shadow → swap.

The :class:`RetuneController` closes the tune→serve→observe→retune
loop.  It watches a :class:`~repro.serving.telemetry.ServingTelemetry`
through a :class:`~repro.serving.telemetry.DriftDetector`; when a
served bin's live accuracy stops supporting its stored guarantee, the
controller

1. opens a :class:`~repro.autotuner.session.TuningSession` *seeded
   with the deployed artifact's configurations* (incremental, not
   from-scratch) over a fresh harness from ``harness_factory`` — the
   factory is where operators plug in training inputs that reflect
   current traffic;
2. advances the session one bounded ``step(slice_trials)`` slice per
   :meth:`poll`, so retuning interleaves with serving instead of
   monopolising the process (run :meth:`poll` yourself for
   deterministic tests, or :meth:`start` a background thread);
3. stores the finished candidate as a *non-latest* artifact version
   (durable but not served) and starts a shadow deployment on a
   sampled fraction of live traffic;
4. judges the shadow with the pure
   :func:`repro.runtime.policy.judge_shadow` policy: a promotion
   moves the store's latest pointer and atomically
   :meth:`~repro.serving.frontdoor.FrontDoor.hot_swap`\\ s the front
   door; a regression rolls the shadow back and suspends the program
   until an operator calls :meth:`clear`.

It drives a :class:`~repro.serving.frontdoor.FrontDoor`, which holds
every program and shadow and records every executed batch, on any
shard, in its one telemetry — the one the detector watches — so the
loop runs at any shard count.

Every action is appended to :attr:`events`, the controller's audit
trail.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.autotuner.tuner import Autotuner, TunerSettings
from repro.errors import TrainingError
from repro.runtime.policy import judge_shadow
from repro.serving.store import DEFAULT_TAG, ArtifactStore
from repro.serving.telemetry import DriftDetector, DriftEvent

if TYPE_CHECKING:
    from repro.autotuner.session import TuningSession
    from repro.autotuner.testing import ProgramTestHarness
    from repro.compiler.program import CompiledProgram
    from repro.serving.frontdoor import FrontDoor

__all__ = ["RetuneController", "RetuneStatus"]

#: Builds the harness a retune trains against.  Called with the program
#: name and its compiled program; returns a ready harness (whose input
#: generator should reflect *current* traffic, not the original
#: training distribution).
HarnessFactory = Callable[[str, "CompiledProgram"], "ProgramTestHarness"]

#: Resolves per-program retune settings.  Same call signature as
#: :data:`HarnessFactory`; lets callers adapt knobs (e.g. training
#: input sizes) to each program instead of sharing one fixed bundle.
SettingsFactory = Callable[[str, "CompiledProgram"], TunerSettings]


@dataclass
class _Retune:
    """One program's in-flight retune."""

    program: str
    events: list[DriftEvent]
    session: "TuningSession"
    harness: "ProgramTestHarness"
    judge_target: float           # drifted bin the shadow is judged on
    phase: str = "tuning"         # "tuning" | "shadow"
    slices: int = 0
    trials: int = 0
    candidate_version: int | None = None


@dataclass(frozen=True)
class RetuneStatus:
    """Public snapshot of one in-flight retune."""

    program: str
    phase: str
    slices: int
    trials: int
    drifted_bins: tuple[float, ...]
    candidate_version: int | None


class RetuneController:
    """Drives drift detection, incremental retunes, and promotions.

    Drift is read from the front door's :attr:`telemetry`, which the
    door feeds with every batch it serves.  ``settings`` are the
    tuner knobs for retune sessions (scale them down: a retune refines
    a seeded population, it does not explore from scratch) — either
    one fixed ``TunerSettings``, or a callable ``(name, compiled) ->
    TunerSettings`` resolving them per program.
    """

    def __init__(self, frontdoor: "FrontDoor", store: ArtifactStore, *,
                 harness_factory: HarnessFactory,
                 settings: "TunerSettings | SettingsFactory",
                 tag: str = DEFAULT_TAG,
                 slice_trials: int = 48,
                 shadow_fraction: float = 0.5,
                 min_shadow_samples: int = 8,
                 min_drift_samples: int = 16,
                 drift_confidence: float = 0.9,
                 log: Callable[[str], None] | None = None):
        if slice_trials < 1:
            raise ValueError("slice_trials must be >= 1")
        self.frontdoor = frontdoor
        self.store = store
        self.telemetry = frontdoor.telemetry
        self.harness_factory = harness_factory
        self.settings = settings
        self.tag = tag
        self.slice_trials = slice_trials
        self.shadow_fraction = shadow_fraction
        self.min_shadow_samples = min_shadow_samples
        self.detector = DriftDetector(self.telemetry,
                                      min_samples=min_drift_samples,
                                      confidence=drift_confidence)
        self.log = log
        #: Human-readable audit trail of everything the controller did.
        self.events: list[str] = []
        self._active: dict[str, _Retune] = {}
        self._suspended: set[str] = set()
        self._lock = threading.Lock()  # guards: _active, _suspended
        self._poll_lock = threading.Lock()  # serialises poll() ticks
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, RetuneStatus]:
        with self._lock:
            return {name: RetuneStatus(
                program=name, phase=state.phase, slices=state.slices,
                trials=state.trials,
                drifted_bins=tuple(e.target for e in state.events),
                candidate_version=state.candidate_version)
                for name, state in self._active.items()}

    @property
    def suspended(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._suspended))

    def clear(self, program: str) -> None:
        """Lift a post-rollback suspension and forget stale windows.

        A rolled-back program is not retried automatically — its live
        windows would immediately re-flag the same drift and re-run
        the same failed retune.  ``clear`` is the operator's (or a
        fixed harness factory's) way back in.
        """
        with self._lock:
            self._suspended.discard(program)
        self.telemetry.reset(program)

    def _note(self, message: str) -> None:
        self.events.append(message)
        if self.log is not None:
            self.log(message)

    # ------------------------------------------------------------------
    # Drift
    # ------------------------------------------------------------------
    def check_drift(self) -> dict[str, list[DriftEvent]]:
        """Drift events per served program (idle programs only)."""
        found: dict[str, list[DriftEvent]] = {}
        for name in self.frontdoor.programs:
            with self._lock:
                if name in self._active or name in self._suspended:
                    continue
            tuned = self.frontdoor.program_for(name)
            events = self.detector.check(name, tuned.metric,
                                         tuned.guarantees)
            if events:
                found[name] = events
        return found

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def poll(self) -> list[str]:
        """Advance every in-flight retune by one bounded slice.

        One call judges active shadows, steps active tuning sessions
        by ``slice_trials``, and opens retunes for newly drifted
        programs.  Returns the audit lines appended this tick.
        Thread-safe; the background thread just calls this in a loop.
        """
        with self._poll_lock:
            before = len(self.events)
            self._judge_shadows()
            self._step_sessions()
            self._launch_retunes()
            return self.events[before:]

    def _judge_shadows(self) -> None:
        with self._lock:
            shadowing = [state for state in self._active.values()
                         if state.phase == "shadow"]
        for state in shadowing:
            try:
                self._judge_one(state)
            except Exception as exc:  # noqa: BLE001 — fail one shadow,
                # not the whole control loop (or its thread).
                self._abandon(state, f"shadow judgement failed: "
                                     f"{type(exc).__name__}: {exc}")

    def _judge_one(self, state: _Retune) -> None:
        name = state.program
        status = self.frontdoor.shadow_status(name)
        if status is None:
            # Someone else swapped or stopped it; stand down.
            with self._lock:
                self._active.pop(name, None)
            self._note(f"{name}: shadow vanished, standing down")
            return
        metric = self.frontdoor.program_for(name).metric
        if status.failures:
            decision_action = "rollback"
            reason = (f"candidate crashed {status.failures} "
                      f"time(s) in shadow")
        else:
            # Judge on the drifted bin's own traffic: pooled windows
            # would dilute an accurate-bin regression (or recovery)
            # with cheaper bins' requests.
            primary, candidate = status.per_bin.get(
                state.judge_target, ((), ()))
            decision = judge_shadow(
                primary, candidate, metric, state.judge_target,
                min_samples=self.min_shadow_samples)
            decision_action, reason = decision.action, decision.reason
        if decision_action == "wait":
            return
        candidate = self.frontdoor.shadow_candidate(name)
        self.frontdoor.stop_shadow(name)
        if candidate is None:
            # The shadow vanished between judging and fetching (a
            # concurrent swap/stop): stand down — nothing regressed,
            # so this must not suspend the program.
            with self._lock:
                self._active.pop(name, None)
            self._note(f"{name}: shadow vanished, standing down")
            return
        if decision_action == "promote":
            # Attach the stored version before any pointer moves: an
            # unreadable or out-of-space file raises here, the retune
            # is abandoned, and the served program stays.
            self.store.load_version(
                name, self.tag, state.candidate_version
            ).to_tuned(candidate.program)
            self.store.promote(name, self.tag,
                               state.candidate_version)
            self.frontdoor.hot_swap(name, candidate)
            with self._lock:
                self._active.pop(name, None)
            self._note(f"{name}: promoted candidate "
                       f"v{state.candidate_version} ({reason})")
        else:
            with self._lock:
                self._active.pop(name, None)
                self._suspended.add(name)
            self._note(f"{name}: rolled back candidate "
                       f"v{state.candidate_version} ({reason}); "
                       f"suspended until clear()")

    def _step_sessions(self) -> None:
        with self._lock:
            tuning = [state for state in self._active.values()
                      if state.phase == "tuning"]
        for state in tuning:
            try:
                self._step_one(state)
            except Exception as exc:  # noqa: BLE001 — fail one retune,
                # not the whole control loop (or its thread).
                self._abandon(state, f"retune failed: "
                                     f"{type(exc).__name__}: {exc}")

    def _step_one(self, state: _Retune) -> None:
        progress = state.session.step(self.slice_trials)
        state.slices += 1
        state.trials += progress.trials
        if not progress.done:
            return
        result = state.session.result()
        state.harness.close()
        name = state.program
        artifact = result.to_artifact(metadata={
            "retune": True,
            "drifted_bins": [e.target for e in state.events],
            "retune_slices": state.slices,
        })
        path = self.store.save(artifact, self.tag, set_latest=False)
        # The version is the one *this* save wrote (parsed from its
        # path) — never versions()[-1], which a concurrent saver of
        # the same tag could have appended to in between.
        state.candidate_version = ArtifactStore.parse_version(path)
        candidate = result.tuned_program()
        self.frontdoor.start_shadow(name, candidate,
                                 fraction=self.shadow_fraction)
        state.phase = "shadow"
        self._note(f"{name}: retune finished after {state.slices} "
                   f"slice(s) / {state.trials} trials; candidate "
                   f"v{state.candidate_version} shadowing at "
                   f"{self.shadow_fraction:.0%}")

    def _abandon(self, state: _Retune, reason: str) -> None:
        """Tear one failed retune down and suspend its program."""
        name = state.program
        try:
            state.harness.close()
        except Exception:  # noqa: BLE001 — already failing; keep going
            pass
        self.frontdoor.stop_shadow(name)
        with self._lock:
            self._active.pop(name, None)
            self._suspended.add(name)
        self._note(f"{name}: {reason}; suspended until clear()")

    def _launch_retunes(self) -> None:
        for name, events in self.check_drift().items():
            tuned = self.frontdoor.program_for(name)
            # Resolve settings *before* building the harness: a
            # failing resolver must not leak a fresh backend on every
            # poll tick while the drift stays pending.
            settings = (self.settings(name, tuned.program)
                        if callable(self.settings) else self.settings)
            harness = self.harness_factory(name, tuned.program)
            try:
                tuner = Autotuner(tuned.program, harness, settings)
                session = tuner.session(
                    seed_configs=tuple(tuned.bin_configs.values()))
            except BaseException:
                harness.close()
                raise
            # Judge the shadow on the most accurate drifted bin — the
            # strongest promise currently being broken.
            state = _Retune(program=name, events=list(events),
                            session=session, harness=harness,
                            judge_target=events[-1].target)
            with self._lock:
                self._active[name] = state
            self._note(
                f"{name}: drift on bins "
                f"{[f'{e.target:g}' for e in events]} "
                f"(observed means "
                f"{[f'{e.observed.mean:.4g}' for e in events]}); "
                f"background retune opened, seeded with "
                f"{len(tuned.bin_configs)} deployed configs")

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.1) -> None:
        """Poll in a daemon thread every ``interval`` seconds."""
        if self._thread is not None and self._thread.is_alive():
            raise TrainingError("retune controller already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.poll()
                except Exception as exc:  # noqa: BLE001 — a crashed
                    # tick must not silently kill the control loop.
                    self._note(f"controller tick failed: "
                               f"{type(exc).__name__}: {exc}")

        self._thread = threading.Thread(
            target=loop, name="retune-controller", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def close(self) -> None:
        self.stop()
        with self._lock:
            active = list(self._active.values())
            self._active.clear()
        for state in active:
            try:
                state.harness.close()
            except Exception:  # noqa: BLE001 — one dead harness must
                pass           # not leak the remaining retunes
            self.frontdoor.stop_shadow(state.program)

    def __enter__(self) -> "RetuneController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            active = list(self._active)
        return (f"RetuneController(active={active}, "
                f"suspended={sorted(self._suspended)}, "
                f"slice_trials={self.slice_trials})")
