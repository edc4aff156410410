"""The sharded, load-shedding serving front door.

One :class:`~repro.serving.engine.ServingEngine` is a single
in-process object; the front door turns it into a *tier*.  Programs
are sharded across several engine workers (one backend each — the
``async:<shards>x<workers>`` spec expands to a process pool per
shard), traffic flows through one bounded admission queue, and
whichever shard is idle drains its head in a micro-batch, so the
stacked execution path sees large same-bin waves even when callers
submit one request at a time, and no request waits behind a busy
shard while another sits idle.

The unique lever of a variable-accuracy system is that the policy
layer already knows each bin's cost *and* statistical guarantee, so
under overload the front door sheds **accuracy instead of requests**:

* an admission controller tracks queue fill and recent end-to-end
  p95 and steps a shed level up/down through the pure
  :func:`~repro.runtime.policy.update_shed_level` hysteresis
  controller;
* at shed level *L*, new traffic is routed up to *L* bins cheaper
  than its nominal dynamic-bin-lookup choice via
  :func:`~repro.runtime.policy.degrade_request` — never below the
  request's ``floor`` bin — and every degraded response is stamped
  (``ServeResponse.degraded``) rather than silently cheapened;
* only when the admission queue is full is a request rejected, and
  requests whose deadline passes while queued get an explicit
  deadline-expired error response — both outcomes are counted, so
  ``submitted == completed + rejected + expired + queued`` holds in
  every snapshot.

:class:`FrontDoorStats` is the one serving snapshot.  The booking of
an executed batch is the one place a served request is recorded: the
door feeds the batch's responses to its one
:class:`~repro.serving.telemetry.ServingTelemetry`, then, under its
lock, counts every response's outcome, stamps its latency
(``ServeResponse.latency``, admission to response) and adds the
execution counters the shard engine filled for that batch.  So
telemetry records the realized accuracy of degraded traffic in the
cheaper bin's rolling window (where the
:class:`~repro.serving.telemetry.DriftDetector` already watches it),
and its per-bin counts add up to the stats.

The front door owns the one program registry, hot swaps and shadows.
Each admitted request carries the program resolved in the critical
section that queued it, and a shard engine only executes ``(requests,
programs)``, so a hot swap is linearizable by admission order across
every shard.  Store loads run with the lock released.

Internally the front door is one lock, one queue, one condition of
that lock, and one plain thread per shard.  Admission runs on the
caller's thread under the lock; every worker waits on the condition,
drains a micro-batch for its idle shard, and calls ``engine.serve``
with the lock released, so shards execute concurrently while callers
keep admitting.  A shard runs one batch at a time: whoever drains for
it marks it busy, and the same critical section that books the batch
releases it.  A synchronous :meth:`FrontDoor.serve` that finds the
queue empty claims an idle shard and runs its first micro-batch on the
caller's own thread, with the worker's drain and execute code, saving
the hand-off to the worker and back.  Its requests get no future:
their responses come straight back from the batch.
:meth:`FrontDoor.submit` never executes on its caller's thread.

A future's done-callbacks run on the thread that resolves it, which
may be a shard worker, and such a callback may call
:meth:`FrontDoor.submit` or :meth:`FrontDoor.serve`.  A shard is
released before its futures resolve, so a nested ``serve`` claims the
worker's own shard when the queue is empty.  When the nested requests
queue behind other traffic instead, that worker keeps running batches
on its shard until the nested futures resolve, so it never waits on
itself.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.errors import ArtifactError, ConfigError, ReproError
from repro.runtime.backends import (
    ExecutionBackend,
    ShardPlan,
    backend_from_spec,
)
from repro.runtime.policy import (
    SheddingPolicy,
    degrade_request,
    update_shed_level,
)
from repro.runtime.executor import TunedProgram
from repro.serving.engine import (
    DEFAULT_BATCH_SIZE,
    ServeRequest,
    ServeResponse,
    ServingEngine,
)
from repro.serving.store import DEFAULT_TAG, ArtifactStore
from repro.serving.telemetry import ServingTelemetry, latency_summary

__all__ = ["FrontDoor", "FrontDoorStats", "ShadowStatus"]

#: Default admission-queue bound per shard.
DEFAULT_QUEUE_LIMIT = 256

#: End-to-end latency samples the shed controller looks back over.
#: Small on purpose: the controller must react to the *current*
#: overload, not a long healthy history.
RECENT_WINDOW = 128

#: Bound on the latency reservoir behind stats().
LATENCY_WINDOW = 4096

#: Paired accuracy samples a shadow deployment keeps per bin.
SHADOW_WINDOW = 256


@dataclass
class _Item:
    """One admitted request waiting in the admission queue."""

    request: ServeRequest
    tuned: TunedProgram              # resolved at admission
    degraded: int                    # bins shed at admission
    arrival: float                   # monotonic admission time
    deadline: float | None           # absolute monotonic deadline
    # None only for a request of the batch its own synchronous caller
    # claimed: that caller takes the response from _run_batch.
    future: "Future[ServeResponse] | None" = None


@dataclass(frozen=True)
class ShadowStatus:
    """Progress of one shadow deployment.

    ``per_bin`` maps the bin the *primary* served each sampled request
    from to a ``(primary, candidate)`` pair of accuracy windows — a
    drifted bin must be judged against its own traffic, not a pool
    diluted by cheaper requests.  The windows are *paired*: entry
    ``i`` of both came from the same request, so they feed
    :func:`repro.runtime.policy.judge_shadow` directly.  ``samples`` is
    the number of pairs held, summed over bins.  ``failures`` counts
    candidate executions that crashed, including every sampled request
    of a shadow dispatch that raised (a crashing candidate must never
    be promoted, and never fails live traffic).
    """

    program: str
    fraction: float
    samples: int
    executions: int
    failures: int
    per_bin: Mapping[float, tuple[tuple[float, ...],
                                  tuple[float, ...]]] = \
        field(default_factory=dict)


class _ShadowState:
    """Mutable state of one shadow deployment (door lock held)."""

    __slots__ = ("candidate", "fraction", "stride", "counter",
                 "executions", "failures", "per_bin")

    def __init__(self, candidate: TunedProgram, fraction: float):
        self.candidate = candidate
        self.fraction = fraction
        self.stride = max(1, int(round(1.0 / fraction)))
        self.counter = 0
        self.executions = 0
        self.failures = 0
        # (primary, candidate) accuracy pairs, by the primary's bin.
        self.per_bin: dict[float, deque[tuple[float, float]]] = {}

    def record(self, pairs: list[tuple[ServeRequest, ServeResponse]],
               outcomes: list | None) -> None:
        """Fold the candidate's ``outcomes`` for sampled ``pairs``
        (``None``: the whole shadow dispatch raised)."""
        self.executions += len(pairs)
        if outcomes is None:
            self.failures += len(pairs)
            return
        for (_, response), outcome in zip(pairs, outcomes):
            if outcome.failed:
                self.failures += 1
            elif response.achieved_accuracy is not None:
                bucket = self.per_bin.get(response.bin_target)
                if bucket is None:
                    bucket = self.per_bin[response.bin_target] = \
                        deque(maxlen=SHADOW_WINDOW)
                bucket.append((response.achieved_accuracy,
                               outcome.accuracy))

    def status(self, name: str) -> ShadowStatus:
        # A bucket exists only once a pair lands in it, so it unzips
        # into two windows of equal length.
        return ShadowStatus(
            program=name, fraction=self.fraction,
            samples=sum(map(len, self.per_bin.values())),
            executions=self.executions, failures=self.failures,
            per_bin={target: tuple(zip(*pairs))
                     for target, pairs in self.per_bin.items()})


@dataclass(frozen=True)
class FrontDoorStats:
    """Point-in-time snapshot of the tier: the one serving stats type.

    The front door's own counters are read in one critical section, so
    ``submitted == completed + rejected + expired + queued`` and
    ``requests == served + errors == completed`` hold in every
    snapshot; ``queued`` counts admitted requests not yet resolved,
    including batches in execution.  ``served``, ``errors``,
    ``escalations`` and ``fallbacks`` are counted from the responses of
    executed batches (a raising shard's refusals are errors); rejected
    and expired requests count only in their own fields.  ``swaps``
    counts :meth:`FrontDoor.hot_swap` calls, once each.
    ``executions``, ``stacked_calls``, ``stacked_requests`` and
    ``shadow_executions`` are the counters the shard engines filled
    for each batch, added in the critical section that books it.
    Latency percentiles run over the ``ServeResponse.latency`` of
    completed requests: admission to response, queueing included.
    """

    shards: int
    submitted: int
    completed: int
    rejected: int
    expired: int
    degraded: int
    degrade_steps: int
    shed_level: int
    queued: int
    served: int
    errors: int
    escalations: int
    fallbacks: int
    executions: int
    stacked_calls: int
    stacked_requests: int
    shadow_executions: int
    swaps: int
    p50_latency: float
    p95_latency: float
    p99_latency: float

    @property
    def requests(self) -> int:
        """Requests the shard engines answered: ``served + errors``."""
        return self.served + self.errors

    def __str__(self) -> str:
        return (f"{self.submitted} submitted across {self.shards} "
                f"shards ({self.completed} completed: {self.served} ok, "
                f"{self.errors} errors; {self.rejected} rejected, "
                f"{self.expired} expired), "
                f"{self.escalations} escalations, "
                f"{self.fallbacks} fallbacks, "
                f"{self.executions} executions "
                f"(+{self.shadow_executions} shadow), "
                f"{self.stacked_requests} stacked into "
                f"{self.stacked_calls} fused calls, {self.swaps} swaps, "
                f"{self.degraded} degraded by {self.degrade_steps} "
                f"bin-steps, shed level {self.shed_level}, "
                f"{self.queued} queued, "
                f"p50 {self.p50_latency * 1e3:.2f}ms, "
                f"p95 {self.p95_latency * 1e3:.2f}ms, "
                f"p99 {self.p99_latency * 1e3:.2f}ms")


class FrontDoor:
    """Sharded serving tier over per-shard
    :class:`~repro.serving.engine.ServingEngine` workers.

    ``engines`` supplies one engine per shard (use :meth:`build` to
    expand an ``async:<shards>x<workers>`` spec).  ``telemetry`` is the
    one :class:`~repro.serving.telemetry.ServingTelemetry` every
    executed batch is recorded in (a fresh one by default).  ``store``
    loads programs that were never registered.  The one admission
    queue holds ``queue_limit`` requests per shard; one drain hands up
    to the draining shard engine's ``batch_size`` queued requests to
    ``engine.serve`` (where same-bin requests fuse into stacked
    executions); ``deadline`` (seconds) expires requests still queued
    past it.  ``shedding`` enables the accuracy-shedding
    admission controller; ``None`` disables shedding entirely
    (overload then only rejects).

    Requests enter through :meth:`submit` (a future per request, from
    any thread) or the synchronous :meth:`serve`.  Admission never
    blocks on execution: a request is queued, degraded, or rejected
    under one short-held lock on the caller's thread.  Only a
    synchronous :meth:`serve` that finds the queue empty and a shard
    idle then executes its batch on the caller's thread.
    """

    def __init__(self, engines: Sequence[ServingEngine], *,
                 telemetry: ServingTelemetry | None = None,
                 store: ArtifactStore | None = None,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 deadline: float | None = None,
                 shedding: SheddingPolicy | None = None):
        engines = list(engines)
        if not engines:
            raise ConfigError("a front door needs at least one shard "
                              "engine")
        if queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if deadline is not None and not deadline > 0:  # NaN too
            raise ConfigError("deadline must be positive (or None)")
        self._engines = engines
        self.telemetry = (telemetry if telemetry is not None
                          else ServingTelemetry())
        self.store = store
        self.queue_limit = queue_limit
        self.deadline = deadline
        self.shedding = shedding

        # One lock guards the registry, the queue, every busy flag and
        # counter; every worker sleeps on the one condition of that
        # lock.
        self._lock = threading.Lock()
        self._programs: dict[str, TunedProgram] = {}
        self._shadows: dict[str, _ShadowState] = {}
        self._ready = threading.Condition(self._lock)
        self._queue: deque[_Item] = deque()
        # A shard is busy from the drain of a batch until the booking
        # of its responses, whichever thread runs it.
        self._busy = [False for _ in engines]
        self._shed_level = 0
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._expired = 0
        self._degraded = 0
        self._degrade_steps = 0
        self._served = 0
        self._errors = 0
        self._escalations = 0
        self._fallbacks = 0
        self._swaps = 0
        # What the shard engines executed, added per booked batch.
        self._executed = dict.fromkeys(
            ("executions", "stacked_calls", "stacked_requests",
             "shadow_executions"), 0)
        self._executing = 0              # drained, not yet resolved
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._recent: deque[float] = deque(maxlen=RECENT_WINDOW)
        self._closed = False
        # Each worker thread, mapped to its shard.
        self._workers = {
            threading.Thread(target=self._work, args=(shard,),
                             name=f"repro-shard-{shard}", daemon=True): shard
            for shard in range(len(engines))}
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Construction from a ShardPlan
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, plan: "ShardPlan | str", *,
              shard_backend: "str | ExecutionBackend | None" = None,
              batch_size: int = DEFAULT_BATCH_SIZE,
              **kwargs) -> "FrontDoor":
        """Expand an ``async:<shards>x<workers>`` spec into a tier.

        One :class:`ServingEngine` is built per shard, each with its
        own backend (``plan.shard_backend_spec``, i.e. a
        ``process:<workers>`` pool — override with ``shard_backend``,
        e.g. ``"serial"`` for tests and single-core hosts; a backend
        instance serves a one-shard plan) and ``batch_size``.
        Remaining keyword arguments (``telemetry`` and ``store`` among
        them) go to :class:`FrontDoor` itself.
        """
        if isinstance(plan, str):
            plan = backend_from_spec(plan, allow_sharded=True)
        if not isinstance(plan, ShardPlan):
            raise ConfigError(
                f"FrontDoor.build needs an 'async:<shards>x<workers>' "
                f"spec or ShardPlan; got {plan!r}")
        spec = (shard_backend if shard_backend is not None
                else plan.shard_backend_spec)
        engines = [ServingEngine(backend=backend_from_spec(spec),
                                 batch_size=batch_size)
                   for _ in range(plan.shards)]
        return cls(engines, **kwargs)

    # ------------------------------------------------------------------
    # Program registry and shadow deployments
    # ------------------------------------------------------------------
    def register(self, name: str, tuned: TunedProgram) -> None:
        """Serve ``tuned`` under ``name`` (usually its root name)."""
        with self._lock:
            self._programs[name] = tuned

    def hot_swap(self, name: str, tuned: TunedProgram
                 ) -> TunedProgram | None:
        """Atomically replace the program served under ``name``.

        Requests admitted before the swap finish on the program they
        were admitted under; every request admitted after it, on any
        shard, runs ``tuned``.  Any active shadow of ``name`` ends (the
        usual promotion path swaps in the shadow's own candidate), the
        name's telemetry windows reset so the new artifact is judged
        on its own traffic, and the previous program is returned for
        audit or rollback.

        A replacement compiled from another root raises
        :class:`~repro.errors.ArtifactError` and changes nothing.
        """
        with self._lock:
            previous = self._programs.get(name)
            if previous is not None \
                    and tuned.program.root != previous.program.root:
                raise ArtifactError(
                    f"cannot hot-swap {name!r}: the replacement is "
                    f"compiled from root {tuned.program.root!r}, the "
                    f"served program from {previous.program.root!r}")
            self._programs[name] = tuned
            self._shadows.pop(name, None)
            self._swaps += 1
        self.telemetry.reset(name)
        return previous

    def program_for(self, name: str, tag: str = DEFAULT_TAG
                    ) -> TunedProgram:
        """The tuned program serving ``name``; store-backed and cached."""
        with self._lock:
            tuned = self._programs.get(name)
        if tuned is not None:
            return tuned
        if self.store is None:
            raise ArtifactError(
                f"no tuned program registered as {name!r} and the "
                f"front door has no artifact store to load it from")
        # Load outside the lock: disk I/O plus program recompilation
        # must not stall admission or stats().
        tuned = self.store.load_tuned(name, tag)
        with self._lock:
            # A concurrent loader may have won; first one in wins so
            # every request serves the same TunedProgram object.
            return self._programs.setdefault(name, tuned)

    @property
    def programs(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._programs)

    def start_shadow(self, name: str, candidate: TunedProgram, *,
                     fraction: float = 0.25) -> None:
        """Shadow ``candidate`` on a sampled fraction of ``name``'s
        traffic.

        Every ``1/fraction``-th successfully served request is re-run
        on the candidate (batched and fused on its shard's backend,
        like live traffic); only its achieved accuracy is recorded —
        callers always receive the primary's outputs, even when the
        candidate crashes.  Sampling is a deterministic stride over
        the whole tier, so a fixed request sequence shadows a fixed
        subset.  The last :data:`SHADOW_WINDOW` pairs are kept.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("shadow fraction must be in (0, 1]")
        self.program_for(name)  # primary must exist (or load) first
        with self._lock:
            self._shadows[name] = _ShadowState(candidate, fraction)

    def shadow_status(self, name: str) -> ShadowStatus | None:
        """Progress of ``name``'s shadow, or ``None`` when inactive."""
        with self._lock:
            state = self._shadows.get(name)
            return None if state is None else state.status(name)

    def stop_shadow(self, name: str) -> ShadowStatus | None:
        """End ``name``'s shadow; returns its final status."""
        with self._lock:
            state = self._shadows.pop(name, None)
            return None if state is None else state.status(name)

    def shadow_candidate(self, name: str) -> TunedProgram | None:
        """The program currently shadowing ``name``, if any."""
        with self._lock:
            state = self._shadows.get(name)
            return None if state is None else state.candidate

    @property
    def shards(self) -> int:
        return len(self._engines)

    @property
    def shard_engines(self) -> tuple[ServingEngine, ...]:
        return tuple(self._engines)

    # ------------------------------------------------------------------
    # Admission (caller threads)
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Admit one request; the future resolves to its response.

        Callable from any thread.  The future *always* resolves to a
        :class:`ServeResponse` — rejected, deadline-expired and
        unknown-program requests resolve to explicit error responses,
        never silent drops or exceptions.  Execution always happens on
        a shard worker, never on the calling thread.
        """
        futures, _ = self._admit_all([request], claim=False)
        return futures[0]

    def serve(self, requests: Sequence[ServeRequest]
              ) -> list[ServeResponse]:
        """Admit a batch and wait; responses align positionally.

        The whole batch is admitted in one critical section.  When
        the queue was empty and a shard is idle, this thread claims the
        shard (a worker's own first) and runs the first micro-batch (up
        to the shard engine's ``batch_size`` requests) itself; whatever
        stays queued is left to the workers.  Called on a shard's
        worker thread (from a done-callback), it runs batches on that
        shard itself until its futures resolve, since no other thread
        might.
        """
        futures, claimed = self._admit_all(requests, claim=True)
        # The claimed batch's responses come straight back, in the
        # order of the requests that have no future.
        responses = iter(self._run_batch(*claimed) if claimed else ())
        shard = self._workers.get(threading.current_thread())
        if shard is not None:
            self._work(shard, [future for future in futures
                               if future is not None])
        return [next(responses) if future is None else future.result()
                for future in futures]

    def _admit_all(self, requests: Sequence[ServeRequest], *, claim: bool
                   ) -> tuple[list[Future | None],
                              tuple[int, list[_Item]] | None]:
        """Admit ``requests`` in one critical section.

        Programs not yet registered are loaded first, with the lock
        released.  Returns each request's future and, when ``claim`` is
        set, the queue was empty and a shard was idle, that shard and
        the batch this thread drained for it (the shard is then busy
        until :meth:`_run_batch` books the batch).  The requests of a
        claimed batch get no future (``None``), in the batch's order.
        """
        arrival = time.monotonic()
        refused: list[tuple[Future, ServeResponse]] = []
        unknown: dict[str, str] = {}     # program -> why it won't load
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("front door is closed")
                missing = {request.program for request in requests
                           if request.program not in self._programs
                           and request.program not in unknown}
                if not missing:
                    futures, claimed = self._admit_batch(
                        requests, arrival, refused, unknown, claim)
                    break
            for name in missing:
                try:
                    self.program_for(name)
                except ReproError as exc:
                    unknown[name] = str(exc)
        # Futures resolve outside the lock: their done-callbacks run
        # on this thread and may call back into the front door.
        for future, response in refused:
            _resolve(future, response)
        return futures, claimed

    def _admit_batch(self, requests: Sequence[ServeRequest],
                     arrival: float,
                     refused: list[tuple[Future, ServeResponse]],
                     unknown: Mapping[str, str], claim: bool
                     ) -> tuple[list[Future | None],
                                tuple[int, list[_Item]] | None]:
        """Admit every request, claim an idle shard for a synchronous
        caller, and wake the workers for what stays queued (lock held).

        A caller claims only when the queue was empty, so its batch is
        the head of the queue.  Every request the claim leaves out gets
        its future here, before the lock is released and a worker can
        drain it."""
        queue = self._queue
        was_empty = not queue
        admitted = [self._admit(request, arrival, refused, unknown)
                    for request in requests]
        claimed = None
        if claim and was_empty and queue:
            # A worker's own shard first, so its thread never holds a
            # second shard while its own sits idle.
            home = self._workers.get(threading.current_thread(), 0)
            shard = next((shard for shard in (home, *range(self.shards))
                          if not self._busy[shard]), None)
            if shard is not None:
                live = self._drain(shard, refused)
                if live:
                    claimed = shard, live
        for item in admitted if claimed is None else queue:
            if isinstance(item, _Item) and item.future is None:
                item.future = Future()
        # notify_all: a bare notify() could wake a worker whose shard is
        # busy.  With every shard busy, the next release wakes them.
        if queue and not all(self._busy):
            self._ready.notify_all()
        return [item.future if isinstance(item, _Item) else item
                for item in admitted], claimed

    def _admit(self, request: ServeRequest, arrival: float,
               refused: list[tuple[Future, ServeResponse]],
               unknown: Mapping[str, str]) -> _Item | Future:
        """One admission decision: resolve the program, shed, and
        enqueue (returning the queued item) or refuse (returning the
        refusal's future, the refusal appended to ``refused``).  Lock
        held."""
        self._submitted += 1
        tuned = self._programs.get(request.program)
        if tuned is None:
            # A program that could not be loaded: a completed error.
            response = _refusal(request, unknown[request.program])
            self._book(response, 0, arrival, time.monotonic())
            future = Future()
            refused.append((future, response))
            return future
        degraded = 0
        capacity = len(self._engines) * self.queue_limit
        if self.shedding is not None:
            fill = len(self._queue) / capacity
            # The recent p95 is read only against a budget.
            p95 = (latency_summary(self._recent)[1]
                   if self._recent
                   and self.shedding.p95_budget is not None else None)
            self._shed_level = update_shed_level(
                self._shed_level, fill, self.shedding, p95=p95)
            if self._shed_level > 0:
                request, degraded = self._degrade(request, tuned,
                                                  self._shed_level)
        if len(self._queue) >= capacity:
            self._rejected += 1
            future = Future()
            refused.append((future, _refusal(
                request, "rejected: all shard queues full")))
            return future
        deadline = (None if self.deadline is None
                    else arrival + self.deadline)
        item = _Item(request=request, tuned=tuned, degraded=degraded,
                     arrival=arrival, deadline=deadline)
        self._queue.append(item)
        return item

    def _degrade(self, request: ServeRequest, tuned: TunedProgram,
                 level: int) -> tuple[ServeRequest, int]:
        """Shed ``request`` by up to ``level`` of ``tuned``'s bins
        (floor-bounded; lock held)."""
        decision = degrade_request(
            tuned.bins, tuned.metric, request.accuracy, level,
            floor=request.floor)
        if decision.steps == 0:
            return request, 0
        self._degraded += 1
        self._degrade_steps += decision.steps
        return (replace(request, accuracy=decision.target),
                decision.steps)

    # ------------------------------------------------------------------
    # Shard execution (a worker thread, or a caller that claimed an
    # idle shard; engine.serve outside the lock)
    # ------------------------------------------------------------------
    def _work(self, shard: int, futures: list[Future] | None = None
              ) -> None:
        """Drain micro-batches off the queue and run them on ``shard``,
        on this thread: the shard worker's loop, which returns once the
        door is closed, the queue empty and the shard released.

        With ``futures`` the worker runs a nested :meth:`serve` (from a
        done-callback), which would otherwise wait on requests it may
        have to run itself, and returns once they have all resolved;
        each resolution wakes the condition, so the wait cannot miss it.
        """
        if futures is None:
            def finished() -> bool:
                return (self._closed and not self._queue
                        and not self._busy[shard])
        else:
            pending = [future for future in futures if not future.done()]

            def wake(_future: Future) -> None:
                with self._lock:
                    self._ready.notify_all()

            def finished() -> bool:
                return all(future.done() for future in pending)

            for future in pending:
                future.add_done_callback(wake)
        while True:
            expired: list[tuple[Future, ServeResponse]] = []
            with self._lock:
                while not finished() and (self._busy[shard]
                                          or not self._queue):
                    self._ready.wait()
                if finished():
                    return
                live = self._drain(shard, expired)
            for future, response in expired:
                _resolve(future, response)
            if live:
                self._run_batch(shard, live)

    def _drain(self, shard: int,
               expired: list[tuple[Future, ServeResponse]]
               ) -> list[_Item]:
        """Pop up to the shard engine's ``batch_size`` items off the
        queue for an idle shard (lock held).

        Returns the live (unexpired) items, marked executing, and marks
        the shard busy when there are any; expired items are counted
        and their refusals appended to ``expired``.
        """
        queue = self._queue
        now = time.monotonic()
        live = []
        for _ in range(min(len(queue), self._engines[shard].batch_size)):
            item = queue.popleft()
            if item.deadline is None or now <= item.deadline:
                live.append(item)
                continue
            self._expired += 1
            waited = now - item.arrival
            refusal = _refusal(
                item.request,
                f"deadline expired after {waited:.3f}s in queue "
                f"(deadline {self.deadline:g}s)")
            refusal.latency = waited
            if item.future is None:  # drained by its claiming caller
                item.future = Future()
            expired.append((item.future, refusal))
        self._executing += len(live)
        self._busy[shard] = bool(live)
        return live

    def _run_batch(self, shard: int, live: list[_Item]
                   ) -> list[ServeResponse]:
        """Execute a drained batch on this thread, run its shadows,
        book it, release the shard, then resolve its futures; returns
        the responses, aligned with ``live``.

        Booking is the one place a served batch is recorded: its
        responses go to telemetry (outside the lock), then its outcomes,
        latencies and the execution counters the engine filled for it
        are counted in one critical section.  A raising engine fails
        the batch with explicit per-request refusals.  The booking and
        release sit in a ``finally``, so a ``BaseException`` (say,
        ``KeyboardInterrupt`` on a caller's thread) still books the
        batch as refused and frees the shard before it propagates.
        """
        engine = self._engines[shard]
        counters: dict[str, int] = {}
        responses = None
        try:
            responses = engine.serve([item.request for item in live],
                                     [item.tuned for item in live],
                                     counters=counters)
            self._run_shadows(engine, live, responses, counters)
        except Exception as exc:
            # A failed execution must not strand its callers: every
            # request of the batch gets an explicit error.
            responses = [_refusal(
                item.request, f"shard {shard} execution failed: "
                f"{type(exc).__name__}: {exc}") for item in live]
        finally:
            if responses is None:
                responses = [_refusal(
                    item.request, f"shard {shard} execution interrupted")
                    for item in live]
            # Refusals carry no bin, so telemetry skips them.
            self.telemetry.record_batch(responses)
            done = time.monotonic()
            with self._lock:
                for item, response in zip(live, responses):
                    self._book(response, item.degraded, item.arrival,
                               done)
                for key, count in counters.items():
                    self._executed[key] += count
                self._executing -= len(live)
                # Released before any future resolves, so a
                # done-callback that calls serve() finds the shard idle.
                # The workers are woken only when there is something to
                # do: queued work, or a door closing.
                self._busy[shard] = False
                if self._queue or self._closed:
                    self._ready.notify_all()
            for item, response in zip(live, responses):
                if item.future is not None:
                    _resolve(item.future, response)
        return responses

    def _run_shadows(self, engine: ServingEngine, live: list[_Item],
                     responses: Sequence[ServeResponse],
                     counters: dict[str, int]) -> None:
        """Re-run the sampled, successfully served requests of a batch
        on their programs' shadow candidates, on ``engine`` (counted in
        the batch's ``counters``), and record the paired accuracies."""
        sampled: dict[_ShadowState, list] = {}
        with self._lock:
            if not self._shadows:
                return
            for item, response in zip(live, responses):
                state = self._shadows.get(item.request.program)
                if state is None or not response.ok:
                    continue
                state.counter += 1
                if state.counter % state.stride == 0:
                    sampled.setdefault(state, []).append(
                        (item.request, response))
        for state, pairs in sampled.items():
            try:
                outcomes = engine.run_shadow(
                    state.candidate, [request for request, _ in pairs],
                    counters=counters)
            except Exception:  # noqa: BLE001 — a crashing candidate is
                # the shadow's failure, never the live traffic's.
                outcomes = None
            with self._lock:
                state.record(pairs, outcomes)

    def _book(self, response: ServeResponse, degraded: int,
              arrival: float, done: float) -> None:
        """Stamp and count one completed request (lock held)."""
        response.degraded = degraded
        response.latency = done - arrival
        self._latencies.append(response.latency)
        self._recent.append(response.latency)
        self._completed += 1
        if response.ok:
            self._served += 1
        else:
            self._errors += 1
        self._escalations += response.escalations
        if response.fallback:
            self._fallbacks += 1

    # ------------------------------------------------------------------
    # Stats & lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> FrontDoorStats:
        with self._lock:
            counters = dict(
                submitted=self._submitted, completed=self._completed,
                rejected=self._rejected, expired=self._expired,
                degraded=self._degraded,
                degrade_steps=self._degrade_steps,
                shed_level=self._shed_level,
                served=self._served, errors=self._errors,
                escalations=self._escalations,
                fallbacks=self._fallbacks, swaps=self._swaps,
                queued=len(self._queue) + self._executing,
                **self._executed)
            latencies = list(self._latencies)
        p50, p95, p99 = latency_summary(latencies)
        return FrontDoorStats(
            shards=len(self._engines), **counters,
            p50_latency=p50, p95_latency=p95, p99_latency=p99)

    def close(self) -> None:
        """Serve queued traffic, stop the workers, close every shard.

        Requests already admitted are served before the workers exit;
        later submissions raise.  A worker exits only once the queue is
        empty and its shard released, so joining the workers also waits
        out a batch a caller is running; only then are the engines
        closed.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._ready.notify_all()
        for worker in self._workers:
            worker.join(timeout=60.0)
        for engine in self._engines:
            engine.close()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"FrontDoor(shards={len(self._engines)}, "
                f"queue_limit={self.queue_limit}, "
                f"deadline={self.deadline}, "
                f"shedding={self.shedding!r})")


def _refusal(request: ServeRequest, message: str) -> ServeResponse:
    """An explicit never-executed error response (reject/expire/fail)."""
    return ServeResponse(
        program=request.program, ok=False, outputs=None,
        bin_target=None, requested_accuracy=request.accuracy,
        achieved_accuracy=None, guarantee=None, error=message)


def _resolve(future: Future, response: ServeResponse) -> None:
    """Resolve ``future`` unless the caller already cancelled it."""
    try:
        future.set_result(response)
    except InvalidStateError:
        pass
