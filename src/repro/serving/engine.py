"""The accuracy-aware serving engine.

The paper's end product is the *deployed* variable-accuracy program:
requests name an accuracy target, dynamic bin lookup picks the
cheapest satisfying configuration, and ``verify_accuracy`` escalates
through more accurate bins when a check fails (Sections 3.2-3.3, 4.2).
:class:`~repro.runtime.executor.TunedProgram` does that for one
synchronous call; this module does it for *traffic*:

* a :class:`ServeRequest` names a program, its inputs, and optionally
  a requested accuracy and a verify flag;
* the :class:`ServingEngine` executes a batch of requests, each on the
  tuned program the front door resolved for it, grouped per program
  and dispatched on any
  :class:`~repro.runtime.backends.ExecutionBackend` — serial or
  process pool — so one engine saturates whatever hardware the
  backend exposes.  Every batch, live or shadow, goes through
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
executions and fused stacked calls (live and shadow alike) — and
:meth:`ServingEngine.counters` snapshots them.  Programs, swaps,
shadows, per-request outcomes and latency belong to the front door
every engine serves behind
(:class:`~repro.serving.frontdoor.FrontDoorStats`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.config.configuration import Configuration
from repro.runtime.backends import (
    ExecutionBackend,
    SerialBackend,
    TrialOutcome,
    TrialRequest,
)
from repro.runtime.batching import run_batch_stacked
from repro.runtime.executor import TunedProgram
from repro.runtime.guarantees import StatisticalGuarantee
from repro.serving.telemetry import ServingTelemetry

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["ServeRequest", "ServeResponse", "ServingEngine"]

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
    """Executes :class:`ServeRequest` batches on an execution backend.

    The engine holds no programs: :meth:`serve` takes the
    :class:`~repro.runtime.executor.TunedProgram` each request runs on,
    as resolved by the :class:`~repro.serving.frontdoor.FrontDoor` that
    owns the program registry, hot swaps and shadow deployments.
    ``batch_size`` bounds how many requests one ``run_batch`` call
    carries; process backends amortise their per-batch dispatch over
    it, and the front door drains up to that many queued requests per
    batch.

    With ``telemetry`` attached, every settled response is folded into
    per-bin rolling windows (achieved accuracy, escalations,
    fallbacks) — the observability layer drift detection and
    background retuning build on.
    """

    def __init__(self, *,
                 backend: ExecutionBackend | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 telemetry: ServingTelemetry | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.backend = backend if backend is not None else SerialBackend()
        self.batch_size = batch_size
        self.telemetry = telemetry
        self._lock = threading.Lock()  # guards: _counters
        self._counters = {"executions": 0, "stacked_calls": 0,
                          "stacked_requests": 0, "shadow_executions": 0}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[ServeRequest],
              programs: Sequence[TunedProgram]) -> list[ServeResponse]:
        """Serve request ``i`` on ``programs[i]``; responses align
        positionally with requests."""
        responses: list[ServeResponse | None] = [None] * len(requests)
        pending: list[_Pending] = []
        buffer: list | None = [] if self.telemetry is not None else None
        for index, (request, tuned) in enumerate(
                zip(requests, programs, strict=True)):
            plan = tuned.plan(request.accuracy)
            pending.append(_Pending(
                index=index, request=request, tuned=tuned,
                ladder=plan.ladder, required=plan.required,
                fallback=plan.fallback))

        while pending:
            pending = self._run_wave(pending, responses, buffer)
        if buffer:
            self.telemetry.record_batch(buffer)
        return responses  # type: ignore[return-value]

    def run_shadow(self, candidate: TunedProgram,
                   requests: Sequence[ServeRequest]
                   ) -> list[TrialOutcome]:
        """Run ``requests`` on ``candidate`` at the bins dynamic bin
        lookup picks for them, batched and fused like live traffic but
        without collecting outputs; counted as shadow executions."""
        return self._execute(candidate.program, [
            self._trial_request(request, candidate.bin_configs[
                candidate.plan(request.accuracy).start])
            for request in requests], shadow=True)

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
                    self.backend, collect_outputs=not shadow,
                    counters=counters))
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
        if outcome.failed:
            # A crashed execution is a broken deployment, not an
            # accuracy miss: report it (with its cause) instead of
            # escalating — the single-call path propagates the same
            # exception rather than retrying.
            cause = (f" ({outcome.error})"
                     if outcome.error is not None else "")
            responses[entry.index] = self._finish(
                entry, buffer, None,
                error=f"execution failed at bin {entry.target:g}{cause}")
            return True
        if not entry.request.verify \
                or entry.tuned.metric.meets(outcome.accuracy,
                                            entry.required):
            responses[entry.index] = self._finish(
                entry, buffer, outcome.accuracy, outputs=outcome.outputs)
            return True
        if entry.pos + 1 < len(entry.ladder):
            return False  # climb to the next, more accurate bin
        responses[entry.index] = self._finish(
            entry, buffer, entry.last_accuracy,
            error=f"verify_accuracy failed: required {entry.required:g}, "
                  f"best achieved {entry.last_accuracy!r} after trying "
                  f"bins {list(entry.ladder)}")
        return True

    def _finish(self, entry: _Pending, buffer: list | None,
                accuracy: float | None, *,
                outputs: Mapping[str, Any] | None = None,
                error: str | None = None) -> ServeResponse:
        """The response settling ``entry`` (ok unless ``error``),
        buffered for telemetry."""
        request = entry.request
        ok = error is None
        if buffer is not None:
            buffer.append((request.program, entry.target, ok, accuracy,
                           entry.pos, entry.fallback))
        return ServeResponse(
            program=request.program, ok=ok, outputs=outputs,
            bin_target=entry.target,
            requested_accuracy=request.accuracy,
            achieved_accuracy=accuracy,
            guarantee=entry.tuned.guarantee_for(entry.target),
            fallback=entry.fallback, escalations=entry.pos, error=error)

    # ------------------------------------------------------------------
    # Counters & lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Snapshot of what only the engine sees.

        ``executions`` counts live request executions (escalations
        included) and ``shadow_executions`` candidate re-runs;
        ``stacked_calls`` / ``stacked_requests`` count every fused call
        the engine made and the requests it covered, live and shadow
        alike.
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
        return (f"ServingEngine(backend={self.backend!r}, "
                f"batch_size={self.batch_size})")
