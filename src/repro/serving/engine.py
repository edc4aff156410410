"""The accuracy-aware serving engine.

The paper's end product is the *deployed* variable-accuracy program:
requests name an accuracy target, dynamic bin lookup picks the
cheapest satisfying configuration, and ``verify_accuracy`` escalates
through more accurate bins when a check fails (Sections 3.2-3.3, 4.2).
:class:`~repro.runtime.executor.TunedProgram` does that for one
synchronous call; this module does it for *traffic*:

* a :class:`ServeRequest` names a program, its inputs, and optionally
  a requested accuracy and a verify flag;
* the :class:`ServingEngine` groups requests into batches per program
  and dispatches them on any
  :class:`~repro.runtime.backends.ExecutionBackend` — serial, thread
  pool, or process pool — so one engine saturates whatever hardware
  the backend exposes.  Every batch, live or shadow, goes through
  :func:`~repro.runtime.batching.run_batch_stacked`, so same-bin
  same-shape requests to a ``batchable`` program fuse into one
  stacked execution;
* verify failures escalate in *waves*: every request still climbing
  its ladder is re-batched with the next bin, so escalations stay
  batched too;
* each :class:`ServeResponse` carries the outputs, the chosen bin, the
  achieved accuracy, the bin's training-time statistical guarantee,
  an explicit ``fallback`` flag when no bin satisfied the request
  (never a silent degradation), and the escalation count; the front
  door stamps its latency.

Bin decisions are made by :mod:`repro.runtime.policy` — the same pure
functions the single-call path uses — so a served response chooses the
exact bin ``TunedProgram.run`` would.

The engine counts only what it alone sees — live executions, shadow
executions, fused stacked calls (live and shadow alike) and swaps —
and :meth:`ServingEngine.counters` snapshots them.  Per-request
outcomes (served, errors, escalations, fallbacks) and latency are
counted by the front door every engine serves behind
(:class:`~repro.serving.frontdoor.FrontDoorStats`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.config.configuration import Configuration
from repro.errors import ArtifactError, ReproError
from repro.runtime.backends import (
    ExecutionBackend,
    SerialBackend,
    TrialOutcome,
    TrialRequest,
)
from repro.runtime.batching import run_batch_stacked
from repro.runtime.executor import TunedProgram
from repro.runtime.guarantees import StatisticalGuarantee
from repro.runtime.policy import plan_request
from repro.serving.store import DEFAULT_TAG, ArtifactStore
from repro.serving.telemetry import ServingTelemetry

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["ServeRequest", "ServeResponse", "ShadowStatus",
           "ServingEngine"]

#: Default number of requests dispatched per backend batch.
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class ServeRequest:
    """One unit of serving traffic.

    ``accuracy`` is resolved by dynamic bin lookup; ``None`` requests
    the most accurate bin.  ``verify`` enables the runtime accuracy
    check with escalation.  ``seed`` feeds the program's execution RNG
    exactly as ``TunedProgram.run(seed=...)`` does, so a served
    request reproduces the single-call result bit for bit.

    ``floor`` is read only by the front door's load-shedding
    controller (:mod:`repro.serving.frontdoor`): under overload the
    request may be degraded to a cheaper bin, but never below the
    cheapest bin satisfying ``floor``.  ``None`` permits degradation
    down to the cheapest tuned bin; the engine itself ignores the
    field.
    """

    program: str
    inputs: Mapping[str, Any]
    n: float
    accuracy: float | None = None
    verify: bool = False
    seed: int = 0
    floor: float | None = None


@dataclass
class ServeResponse:
    """What the engine returns for one request.

    ``latency`` and ``degraded`` are stamped by the front door.
    ``latency`` is seconds from admission to response, queueing
    included — the one request latency, and the sample behind
    :class:`~repro.serving.frontdoor.FrontDoorStats` percentiles (0.0
    on the direct engine path).  ``degraded`` is the number of bins
    the shedding controller shed this request below its nominal choice
    before execution (0 on the direct engine path and at shed level
    0), so degraded-but-served traffic is observable per response,
    never silent.
    """

    program: str
    ok: bool
    outputs: Mapping[str, Any] | None
    bin_target: float | None
    requested_accuracy: float | None
    achieved_accuracy: float | None
    guarantee: StatisticalGuarantee | None
    fallback: bool = False
    escalations: int = 0
    latency: float = 0.0
    error: str | None = None
    degraded: int = 0


@dataclass(frozen=True)
class ShadowStatus:
    """Progress of one shadow deployment.

    ``primary_accuracies`` / ``candidate_accuracies`` are *paired*:
    entry ``i`` of both came from the same sampled request, so they
    feed :func:`repro.runtime.policy.judge_shadow` directly.
    ``per_bin`` holds the same paired windows bucketed by the bin the
    *primary* served each request from — a drifted bin must be judged
    against its own traffic, not a pool diluted by cheaper requests.
    ``failures`` counts candidate executions that crashed, including
    every sampled request of a shadow dispatch that raised (a crashing
    candidate must never be promoted, and never fails live traffic).
    """

    program: str
    fraction: float
    samples: int
    executions: int
    failures: int
    primary_accuracies: tuple[float, ...]
    candidate_accuracies: tuple[float, ...]
    per_bin: Mapping[float, tuple[tuple[float, ...],
                                  tuple[float, ...]]] = \
        field(default_factory=dict)


class _ShadowState:
    """Mutable engine-side state of one shadow deployment."""

    __slots__ = ("candidate", "fraction", "stride", "counter",
                 "executions", "failures", "primary", "shadow",
                 "per_bin", "window")

    def __init__(self, candidate: TunedProgram, fraction: float,
                 window: int):
        self.candidate = candidate
        self.fraction = fraction
        self.stride = max(1, int(round(1.0 / fraction)))
        self.counter = 0
        self.executions = 0
        self.failures = 0
        self.window = window
        self.primary: deque[float] = deque(maxlen=window)
        self.shadow: deque[float] = deque(maxlen=window)
        self.per_bin: dict[float, tuple[deque, deque]] = {}


@dataclass
class _Pending:
    """One request mid-flight: where it is on its escalation ladder."""

    index: int
    request: ServeRequest
    tuned: TunedProgram
    ladder: tuple[float, ...]
    required: float
    fallback: bool
    pos: int = 0
    last_accuracy: float | None = None

    @property
    def target(self) -> float:
        return self.ladder[self.pos]


class ServingEngine:
    """Batches :class:`ServeRequest` traffic onto an execution backend.

    Programs come from explicit :meth:`register` calls, from an
    :class:`~repro.serving.store.ArtifactStore` (loaded lazily by
    name, provenance-resolved, and cached), or both.  ``batch_size``
    bounds how many requests one ``run_batch`` call carries; process
    backends amortise their per-batch dispatch over it.

    With ``telemetry`` attached, every settled response is folded into
    per-bin rolling windows (achieved accuracy, escalations,
    fallbacks) — the observability layer drift detection and
    background retuning build on.  :meth:`hot_swap` atomically
    replaces a served program, and :meth:`start_shadow` runs a
    candidate on a sampled fraction of live traffic without exposing
    its outputs to callers.
    """

    def __init__(self, *,
                 store: ArtifactStore | None = None,
                 backend: ExecutionBackend | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 telemetry: ServingTelemetry | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.backend = backend if backend is not None else SerialBackend()
        self.batch_size = batch_size
        self.telemetry = telemetry
        self._programs: dict[str, TunedProgram] = {}
        self._shadows: dict[str, _ShadowState] = {}
        # guards: _programs, _shadows, _counters
        self._lock = threading.Lock()
        self._counters = {"executions": 0, "stacked_calls": 0,
                          "stacked_requests": 0,
                          "shadow_executions": 0, "swaps": 0}

    # ------------------------------------------------------------------
    # Program registry
    # ------------------------------------------------------------------
    def register(self, name: str, tuned: TunedProgram) -> None:
        """Serve ``tuned`` under ``name`` (usually its root name)."""
        with self._lock:
            self._programs[name] = tuned

    def hot_swap(self, name: str, tuned: TunedProgram
                 ) -> TunedProgram | None:
        """Atomically replace the program served under ``name``.

        In-flight requests finish on the program they started with;
        every request planned after the swap sees ``tuned``.  Any
        active shadow of ``name`` ends (the usual promotion path swaps
        in the shadow's own candidate), the name's telemetry windows
        reset so the new artifact is judged on its own traffic, and
        the previous program is returned for audit or rollback.
        """
        with self._lock:
            previous = self._programs.get(name)
            self._programs[name] = tuned
            self._shadows.pop(name, None)
            self._counters["swaps"] += 1
        if self.telemetry is not None:
            self.telemetry.reset(name)
        return previous

    def program_for(self, name: str, tag: str = DEFAULT_TAG
                    ) -> TunedProgram:
        """The tuned program serving ``name``; store-backed and cached."""
        with self._lock:
            tuned = self._programs.get(name)
            if tuned is not None:
                return tuned
            store = self.store
        if store is None:
            raise ArtifactError(
                f"no tuned program registered as {name!r} and the "
                f"engine has no artifact store to load it from")
        # Load outside the lock: disk I/O plus program recompilation
        # must not stall threads serving already-registered programs.
        tuned = store.load_tuned(name, tag)
        with self._lock:
            # A concurrent loader may have won; first one in wins so
            # every request serves the same TunedProgram object.
            return self._programs.setdefault(name, tuned)

    @property
    def programs(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._programs)

    # ------------------------------------------------------------------
    # Shadow deployments
    # ------------------------------------------------------------------
    def start_shadow(self, name: str, candidate: TunedProgram, *,
                     fraction: float = 0.25,
                     window: int = 256) -> None:
        """Shadow ``candidate`` on a sampled fraction of ``name``'s
        traffic.

        Every ``1/fraction``-th successfully served request is re-run
        on the candidate (batched and fused on the same backend, like
        live traffic); only its achieved accuracy is recorded —
        callers always receive the primary's outputs, even when the
        candidate crashes.  Sampling is a deterministic stride, so a
        fixed request sequence shadows a fixed subset.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("shadow fraction must be in (0, 1]")
        self.program_for(name)  # primary must exist (or load) first
        with self._lock:
            self._shadows[name] = _ShadowState(candidate, fraction,
                                               window)

    def shadow_status(self, name: str) -> ShadowStatus | None:
        """Progress of ``name``'s shadow, or ``None`` when inactive."""
        with self._lock:
            state = self._shadows.get(name)
            if state is None:
                return None
            return ShadowStatus(
                program=name, fraction=state.fraction,
                samples=min(len(state.primary), len(state.shadow)),
                executions=state.executions,
                failures=state.failures,
                primary_accuracies=tuple(state.primary),
                candidate_accuracies=tuple(state.shadow),
                per_bin={target: (tuple(primary), tuple(candidate))
                         for target, (primary, candidate)
                         in state.per_bin.items()})

    def stop_shadow(self, name: str) -> ShadowStatus | None:
        """End ``name``'s shadow; returns its final status."""
        status = self.shadow_status(name)
        with self._lock:
            self._shadows.pop(name, None)
        return status

    def shadow_candidate(self, name: str) -> TunedProgram | None:
        """The program currently shadowing ``name``, if any."""
        with self._lock:
            state = self._shadows.get(name)
            return state.candidate if state is not None else None

    def _run_shadows(self, requests: Sequence[ServeRequest],
                     responses: Sequence["ServeResponse | None"]
                     ) -> None:
        """Re-run sampled, successfully served requests on their
        shadow candidates and record paired accuracies."""
        sampled: dict[str, list] = {}
        # One lock acquisition for the whole sampling pass; only the
        # candidate executions themselves run outside it.
        with self._lock:
            if not self._shadows:
                return
            shadows = dict(self._shadows)
            for request, response in zip(requests, responses):
                state = shadows.get(request.program)
                if state is None or response is None \
                        or not response.ok:
                    continue
                state.counter += 1
                if state.counter % state.stride == 0:
                    sampled.setdefault(request.program, []) \
                        .append((request, response))
        for name, pairs in sampled.items():
            state = shadows[name]
            candidate = state.candidate
            batch = [self._trial_request(request, candidate.bin_configs[
                plan_request(candidate.bins, candidate.metric,
                             accuracy=request.accuracy).start])
                for request, _ in pairs]
            try:
                outcomes = self._execute(candidate.program, batch,
                                         shadow=True)
            except Exception:  # noqa: BLE001 — a crashing candidate is
                # the shadow's failure, never the live traffic's.
                outcomes = None
            with self._lock:
                state.executions += len(pairs)
                if outcomes is None:
                    state.failures += len(pairs)
                    continue
                for (request, response), outcome in zip(pairs, outcomes):
                    if outcome.failed:
                        state.failures += 1
                    elif response.achieved_accuracy is not None:
                        # Paired appends: entry i of both windows came
                        # from the same request — pooled, and bucketed
                        # by the bin the primary served from.
                        state.primary.append(response.achieved_accuracy)
                        state.shadow.append(outcome.accuracy)
                        bucket = state.per_bin.get(response.bin_target)
                        if bucket is None:
                            bucket = (deque(maxlen=state.window),
                                      deque(maxlen=state.window))
                            state.per_bin[response.bin_target] = bucket
                        bucket[0].append(response.achieved_accuracy)
                        bucket[1].append(outcome.accuracy)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_one(self, request: ServeRequest) -> ServeResponse:
        return self.serve([request])[0]

    def serve(self, requests: Sequence[ServeRequest]
              ) -> list[ServeResponse]:
        """Serve a batch; responses align positionally with requests."""
        responses: list[ServeResponse | None] = [None] * len(requests)
        pending: list[_Pending] = []
        buffer: list | None = [] if self.telemetry is not None else None
        for index, request in enumerate(requests):
            try:
                tuned = self.program_for(request.program)
            except ReproError as exc:
                responses[index] = self._finish_error(
                    request, None, 0, None, str(exc), buffer=buffer)
                continue
            plan = plan_request(tuned.bins, tuned.metric,
                                accuracy=request.accuracy)
            pending.append(_Pending(
                index=index, request=request, tuned=tuned,
                ladder=plan.ladder, required=plan.required,
                fallback=plan.fallback))

        while pending:
            pending = self._run_wave(pending, responses, buffer)
        if buffer:
            self.telemetry.record_batch(buffer)
        self._run_shadows(requests, responses)
        return responses  # type: ignore[return-value]

    def _run_wave(self, pending: list[_Pending],
                  responses: list[ServeResponse | None],
                  buffer: list | None = None) -> list[_Pending]:
        """Execute every pending request's current bin, one dispatch
        per program; return the entries that must escalate to their
        next bin."""
        groups: dict[int, list[_Pending]] = {}
        for entry in pending:
            groups.setdefault(id(entry.tuned), []).append(entry)
        escalating: list[_Pending] = []
        for group in groups.values():
            tuned = group[0].tuned
            outcomes = self._execute(tuned.program, [
                self._trial_request(entry.request,
                                    tuned.bin_configs[entry.target])
                for entry in group])
            for entry, outcome in zip(group, outcomes):
                entry.last_accuracy = (None if outcome.failed
                                       else outcome.accuracy)
                if self._settle(entry, outcome, responses, buffer):
                    continue
                entry.pos += 1
                escalating.append(entry)
        return escalating

    def _execute(self, program: "CompiledProgram",
                 batch: list[TrialRequest], *,
                 shadow: bool = False) -> list[TrialOutcome]:
        """Run ``batch`` through :func:`run_batch_stacked` in
        ``batch_size`` chunks; count it as executed (even when a chunk
        raises) along with the fused calls it made."""
        counters = {"shadow_executions" if shadow else "executions":
                    len(batch)}
        outcomes: list[TrialOutcome] = []
        try:
            for offset in range(0, len(batch), self.batch_size):
                outcomes.extend(run_batch_stacked(
                    program, batch[offset:offset + self.batch_size],
                    self.backend, objective="cost",
                    collect_outputs=not shadow, counters=counters))
        finally:
            with self._lock:
                for key, increment in counters.items():
                    self._counters[key] += increment
        return outcomes

    @staticmethod
    def _trial_request(request: ServeRequest,
                       config: Configuration) -> TrialRequest:
        return TrialRequest(n=float(request.n), trial_index=0,
                            seed=request.seed, config=config,
                            inputs=request.inputs)

    def _settle(self, entry: _Pending, outcome, responses,
                buffer: list | None = None) -> bool:
        """Record a response for ``entry`` if it is done; True when
        settled, False when it should escalate to the next bin."""
        request = entry.request
        if outcome.failed:
            # A crashed execution is a broken deployment, not an
            # accuracy miss: report it (with its cause) instead of
            # escalating — the single-call path propagates the same
            # exception rather than retrying.
            cause = (f" ({outcome.error})"
                     if outcome.error is not None else "")
            responses[entry.index] = self._finish_error(
                request, entry.target, entry.pos, entry.tuned,
                f"execution failed at bin {entry.target:g}{cause}",
                fallback=entry.fallback, buffer=buffer)
            return True
        if not request.verify:
            responses[entry.index] = self._finish_ok(entry, outcome,
                                                     buffer)
            return True
        metric = entry.tuned.metric
        if metric.meets(outcome.accuracy, entry.required):
            responses[entry.index] = self._finish_ok(entry, outcome,
                                                     buffer)
            return True
        if entry.pos + 1 < len(entry.ladder):
            return False  # climb to the next, more accurate bin
        responses[entry.index] = self._finish_error(
            request, entry.target, entry.pos, entry.tuned,
            f"verify_accuracy failed: required {entry.required:g}, best "
            f"achieved {entry.last_accuracy!r} after trying bins "
            f"{list(entry.ladder)}",
            achieved=entry.last_accuracy, fallback=entry.fallback,
            buffer=buffer)
        return True

    def _finish_ok(self, entry: _Pending, outcome,
                   buffer: list | None = None) -> ServeResponse:
        request = entry.request
        if buffer is not None:
            buffer.append((request.program, entry.target, True,
                           outcome.accuracy, entry.pos, entry.fallback))
        return ServeResponse(
            program=request.program, ok=True, outputs=outcome.outputs,
            bin_target=entry.target,
            requested_accuracy=request.accuracy,
            achieved_accuracy=outcome.accuracy,
            guarantee=entry.tuned.guarantee_for(entry.target),
            fallback=entry.fallback, escalations=entry.pos)

    def _finish_error(self, request: ServeRequest,
                      bin_target: float | None, escalations: int,
                      tuned: TunedProgram | None, message: str,
                      achieved: float | None = None,
                      fallback: bool = False,
                      buffer: list | None = None) -> ServeResponse:
        if buffer is not None:
            buffer.append((request.program, bin_target, False,
                           achieved, escalations, fallback))
        guarantee = (tuned.guarantee_for(bin_target)
                     if tuned is not None and bin_target is not None
                     else None)
        return ServeResponse(
            program=request.program, ok=False, outputs=None,
            bin_target=bin_target,
            requested_accuracy=request.accuracy,
            achieved_accuracy=achieved, guarantee=guarantee,
            fallback=fallback, escalations=escalations, error=message)

    # ------------------------------------------------------------------
    # Counters & lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Snapshot of what only the engine sees.

        ``executions`` counts live request executions (escalations
        included) and ``shadow_executions`` candidate re-runs;
        ``stacked_calls`` / ``stacked_requests`` count every fused call
        the engine made and the requests it covered, live and shadow
        alike; ``swaps`` counts :meth:`hot_swap` calls.
        """
        with self._lock:
            return dict(self._counters)

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ServingEngine(programs={list(self._programs)}, "
                f"backend={self.backend!r}, "
                f"batch_size={self.batch_size})")
