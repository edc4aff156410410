"""The sharded, load-shedding serving front door.

One :class:`~repro.serving.engine.ServingEngine` is a single
in-process object; the front door turns it into a *tier*.  Programs
are sharded across several engine workers (one backend each — the
``async:<shards>x<workers>`` spec expands to a process pool per
shard), traffic flows through bounded per-shard queues, and each
shard drains its queue in micro-batches so the PR-6 stacked execution
path sees large same-bin waves even when callers submit one request
at a time.

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
* only when every shard queue is full is a request rejected, and
  requests whose deadline passes while queued get an explicit
  deadline-expired error response — both outcomes are counted, so
  ``submitted == completed + rejected + expired + queued`` holds in
  every snapshot.

:class:`FrontDoorStats` is the one serving snapshot: the front door
counts every resolved request's outcome and stamps its latency
(``ServeResponse.latency``, admission to response), and sums the
engine-only counters over shards.  Telemetry records the realized
accuracy of degraded traffic in the cheaper bin's rolling window
(where the :class:`~repro.serving.telemetry.DriftDetector` already
watches it), so the adaptive layer sees the *true* served
distribution.

Internally the front door is one lock and one plain thread per shard.
Admission runs on the caller's thread under the lock; each shard's
worker waits on its own condition of that lock, drains a micro-batch,
and calls ``engine.serve`` with the lock released, so shards execute
concurrently while callers keep admitting.  A shard runs one batch at
a time: whoever drains it marks it busy, and the same critical section
that books the batch releases it.  A synchronous :meth:`FrontDoor.serve`
whose requests all land on one idle shard (empty queue, not busy)
claims that shard and runs the batch on the caller's own thread, with
the worker's drain and execute code, saving the hand-off to the worker
and back; :meth:`FrontDoor.submit` never executes on its caller's
thread.

A future's done-callbacks run on the thread that resolves it, which
may be a shard worker.  Because a shard is released before its
futures resolve, such a callback may call :meth:`FrontDoor.submit`,
and :meth:`FrontDoor.serve` while the shard is idle; a ``serve`` from
a worker's callback that has to queue behind other traffic on that
same shard would wait on its own thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ConfigError, ReproError
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

__all__ = ["FrontDoor", "FrontDoorStats"]

#: Default bound on each shard's admission queue.
DEFAULT_QUEUE_LIMIT = 256

#: End-to-end latency samples the shed controller looks back over.
#: Small on purpose: the controller must react to the *current*
#: overload, not a long healthy history.
RECENT_WINDOW = 128

#: Bound on the latency reservoir behind stats().
LATENCY_WINDOW = 4096


@dataclass
class _Item:
    """One admitted request waiting in a shard queue."""

    request: ServeRequest
    degraded: int                    # bins shed at admission
    arrival: float                   # monotonic admission time
    deadline: float | None           # absolute monotonic deadline
    future: "Future[ServeResponse]"


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
    and expired requests count only in their own fields.
    ``executions``, ``stacked_calls``, ``stacked_requests``,
    ``shadow_executions`` and ``swaps`` are the shard engines'
    :meth:`~repro.serving.engine.ServingEngine.counters`, summed.
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
    expand an ``async:<shards>x<workers>`` spec).  ``queue_limit``
    bounds each shard's admission queue; ``max_batch`` bounds how many
    queued requests one drain hands to ``engine.serve`` (where
    same-bin requests fuse into stacked executions);
    ``deadline`` (seconds) expires requests still queued past it.
    ``shedding`` enables the accuracy-shedding admission controller;
    ``None`` disables shedding entirely (overload then only rejects).

    Requests enter through :meth:`submit` (a future per request, from
    any thread) or the synchronous :meth:`serve`.  Admission never
    blocks on execution: a request is queued, degraded, or rejected
    under one short-held lock on the caller's thread.  Only a
    synchronous :meth:`serve` that finds its one shard idle then
    executes its batch on the caller's thread.
    """

    def __init__(self, engines: Sequence[ServingEngine], *,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 max_batch: int = DEFAULT_BATCH_SIZE,
                 deadline: float | None = None,
                 shedding: SheddingPolicy | None = None):
        engines = list(engines)
        if not engines:
            raise ConfigError("a front door needs at least one shard "
                              "engine")
        if queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if deadline is not None and not deadline > 0:  # NaN too
            raise ConfigError("deadline must be positive (or None)")
        self._engines = engines
        self.queue_limit = queue_limit
        self.max_batch = max_batch
        self.deadline = deadline
        self.shedding = shedding

        # One lock guards every queue, busy flag and counter; each
        # shard's worker sleeps on its own condition of that lock.
        self._lock = threading.Lock()
        self._ready = [threading.Condition(self._lock) for _ in engines]
        self._queues: list[deque[_Item]] = [deque() for _ in engines]
        # A shard is busy from the drain of a batch until the booking
        # of its responses, whichever thread runs it.
        self._busy = [False for _ in engines]
        self._rr = 0
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
        self._executing = 0              # drained, not yet resolved
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._recent: deque[float] = deque(maxlen=RECENT_WINDOW)
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, args=(shard,),
                             name=f"repro-shard-{shard}", daemon=True)
            for shard in range(len(engines))]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Construction from a ShardPlan
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, plan: "ShardPlan | str", *,
              store: ArtifactStore | None = None,
              shard_backend: "str | ExecutionBackend | None" = None,
              batch_size: int = DEFAULT_BATCH_SIZE,
              telemetry: ServingTelemetry | None = None,
              **kwargs) -> "FrontDoor":
        """Expand an ``async:<shards>x<workers>`` spec into a tier.

        One :class:`ServingEngine` is built per shard, each with its
        own backend (``plan.shard_backend_spec``, i.e. a
        ``process:<workers>`` pool — override with ``shard_backend``,
        e.g. ``"serial"`` for tests and single-core hosts; a backend
        instance serves a one-shard plan).  All
        shards share ``store`` and ``telemetry``; remaining keyword
        arguments go to :class:`FrontDoor` itself.
        """
        if isinstance(plan, str):
            plan = backend_from_spec(plan, allow_sharded=True)
        if not isinstance(plan, ShardPlan):
            raise ConfigError(
                f"FrontDoor.build needs an 'async:<shards>x<workers>' "
                f"spec or ShardPlan; got {plan!r}")
        spec = (shard_backend if shard_backend is not None
                else plan.shard_backend_spec)
        engines = [ServingEngine(store=store,
                                 backend=backend_from_spec(spec),
                                 batch_size=batch_size,
                                 telemetry=telemetry)
                   for _ in range(plan.shards)]
        kwargs.setdefault("max_batch", batch_size)
        return cls(engines, **kwargs)

    # ------------------------------------------------------------------
    # Program registry passthroughs (fan out to every shard)
    # ------------------------------------------------------------------
    def register(self, name: str, tuned: TunedProgram) -> None:
        """Serve ``tuned`` under ``name`` on every shard."""
        for engine in self._engines:
            engine.register(name, tuned)

    def hot_swap(self, name: str, tuned: TunedProgram) -> None:
        """Atomically replace ``name`` on every shard."""
        for engine in self._engines:
            engine.hot_swap(name, tuned)

    def program_for(self, name: str, tag: str = DEFAULT_TAG
                    ) -> TunedProgram:
        return self._engines[0].program_for(name, tag)

    @property
    def programs(self) -> tuple[str, ...]:
        return self._engines[0].programs

    @property
    def shards(self) -> int:
        return len(self._engines)

    @property
    def shard_engines(self) -> tuple[ServingEngine, ...]:
        return tuple(self._engines)

    @property
    def shed_level(self) -> int:
        with self._lock:
            return self._shed_level

    # ------------------------------------------------------------------
    # Admission (caller threads)
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Admit one request; the future resolves to its response.

        Callable from any thread.  The future *always* resolves to a
        :class:`ServeResponse` — rejected and deadline-expired
        requests resolve to explicit error responses, never silent
        drops or exceptions.  Execution always happens on a shard
        worker, never on the calling thread.
        """
        futures, _ = self._admit_all([request], claim=False)
        return futures[0]

    def serve(self, requests: Sequence[ServeRequest]
              ) -> list[ServeResponse]:
        """Admit a batch and wait; responses align positionally.

        The whole batch is admitted in one critical section.  When
        every admitted request landed on one idle shard, this thread
        claims the shard and runs its first micro-batch (up to
        ``max_batch`` requests) itself; otherwise each shard it reached
        is woken once and hands its share to its engine as one wave.
        """
        futures, claimed = self._admit_all(requests, claim=True)
        if claimed is not None:
            self._run_batch(*claimed)
        return [future.result() for future in futures]

    def _admit_all(self, requests: Sequence[ServeRequest], *, claim: bool
                   ) -> tuple[list[Future], tuple[int, list[_Item]] | None]:
        """Admit ``requests`` in one critical section.

        Returns their futures and, when ``claim`` is set and every
        admitted request went to one shard that was idle, that shard
        and the batch this thread drained from it (the shard is then
        busy until :meth:`_run_batch` books the batch).
        """
        arrival = time.monotonic()
        futures: list[Future] = [Future() for _ in requests]
        refused: list[tuple[Future, ServeResponse]] = []
        claimed = None
        with self._lock:
            if self._closed:
                raise RuntimeError("front door is closed")
            idle = [not queue and not busy
                    for queue, busy in zip(self._queues, self._busy)]
            woken: set[int] = set()
            for request, future in zip(requests, futures):
                shard = self._admit(request, future, arrival, refused)
                if shard is not None:
                    woken.add(shard)
            if claim and len(woken) == 1:
                (shard,) = woken
                if idle[shard]:
                    live = self._drain(shard, refused)
                    if live:
                        claimed = shard, live
                    if not self._queues[shard]:
                        woken.clear()  # nothing left for the worker
            for shard in woken:
                self._ready[shard].notify()
        # Futures resolve outside the lock: their done-callbacks run
        # on this thread and may call back into the front door.
        for future, response in refused:
            _resolve(future, response)
        return futures, claimed

    def _admit(self, request: ServeRequest, future: Future,
               arrival: float,
               refused: list[tuple[Future, ServeResponse]]
               ) -> int | None:
        """One admission decision: shed, enqueue (returning the shard)
        or reject (appending the refusal to ``refused``).  Lock held."""
        self._submitted += 1
        degraded = 0
        if self.shedding is not None:
            fill = (sum(len(queue) for queue in self._queues)
                    / (len(self._engines) * self.queue_limit))
            # The recent p95 is read only against a budget.
            p95 = (latency_summary(self._recent)[1]
                   if self._recent
                   and self.shedding.p95_budget is not None else None)
            self._shed_level = update_shed_level(
                self._shed_level, fill, self.shedding, p95=p95)
            if self._shed_level > 0:
                request, degraded = self._degrade(request,
                                                  self._shed_level)
        shard = self._pick_shard()
        if shard is None:
            self._rejected += 1
            refused.append((future, _refusal(
                request, "rejected: all shard queues full")))
            return None
        deadline = (None if self.deadline is None
                    else arrival + self.deadline)
        self._queues[shard].append(_Item(
            request=request, degraded=degraded, arrival=arrival,
            deadline=deadline, future=future))
        return shard

    def _degrade(self, request: ServeRequest, level: int
                 ) -> tuple[ServeRequest, int]:
        """Shed ``request`` by up to ``level`` bins (floor-bounded;
        lock held)."""
        try:
            tuned = self._engines[0].program_for(request.program)
            decision = degrade_request(
                tuned.bins, tuned.metric, request.accuracy, level,
                floor=request.floor)
        except ReproError:
            # Unknown/unloadable program: admit unchanged and let the
            # shard engine produce its usual explicit error response.
            return request, 0
        if decision.steps == 0:
            return request, 0
        self._degraded += 1
        self._degrade_steps += decision.steps
        return (replace(request, accuracy=decision.target),
                decision.steps)

    def _pick_shard(self) -> int | None:
        """Round-robin over shards, skipping full queues (lock held)."""
        count = len(self._engines)
        for offset in range(count):
            shard = (self._rr + offset) % count
            if len(self._queues[shard]) < self.queue_limit:
                self._rr = (shard + 1) % count
                return shard
        return None

    # ------------------------------------------------------------------
    # Shard execution (a worker thread, or a caller that claimed an
    # idle shard; engine.serve outside the lock)
    # ------------------------------------------------------------------
    def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        ready = self._ready[shard]
        while True:
            expired: list[tuple[Future, ServeResponse]] = []
            with self._lock:
                while self._busy[shard] or (not queue
                                            and not self._closed):
                    ready.wait()
                if not queue:
                    return  # closed, drained and released
                live = self._drain(shard, expired)
            for future, response in expired:
                _resolve(future, response)
            if live:
                self._run_batch(shard, live)

    def _drain(self, shard: int,
               expired: list[tuple[Future, ServeResponse]]
               ) -> list[_Item]:
        """Pop up to ``max_batch`` items off an idle shard's queue
        (lock held).

        Returns the live (unexpired) items, marked executing, and marks
        the shard busy when there are any; expired items are counted
        and their refusals appended to ``expired``.
        """
        queue = self._queues[shard]
        now = time.monotonic()
        live = []
        while queue and len(live) + len(expired) < self.max_batch:
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
            expired.append((item.future, refusal))
        self._executing += len(live)
        self._busy[shard] = bool(live)
        return live

    def _run_batch(self, shard: int, live: list[_Item]) -> None:
        """Execute a drained batch on this thread, book it, release the
        shard, then resolve its futures.

        A raising engine fails the batch with explicit per-request
        refusals.  The booking and release sit in a ``finally``, so a
        ``BaseException`` (say, ``KeyboardInterrupt`` on a caller's
        thread) still books the batch as refused and frees the shard
        before it propagates.
        """
        responses = None
        try:
            responses = self._engines[shard].serve(
                [item.request for item in live])
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
            done = time.monotonic()
            with self._lock:
                for item, response in zip(live, responses):
                    response.degraded = item.degraded
                    response.latency = done - item.arrival
                    self._latencies.append(response.latency)
                    self._recent.append(response.latency)
                    if response.ok:
                        self._served += 1
                    else:
                        self._errors += 1
                    self._escalations += response.escalations
                    if response.fallback:
                        self._fallbacks += 1
                self._completed += len(live)
                self._executing -= len(live)
                # Released before any future resolves, so a
                # done-callback that calls serve() finds the shard idle.
                self._busy[shard] = False
                self._ready[shard].notify()
            for item, response in zip(live, responses):
                _resolve(item.future, response)

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
                fallbacks=self._fallbacks,
                queued=(sum(len(queue) for queue in self._queues)
                        + self._executing))
            latencies = list(self._latencies)
        p50, p95, p99 = latency_summary(latencies)
        shard_counters = [engine.counters() for engine in self._engines]
        for key in shard_counters[0]:
            counters[key] = sum(c[key] for c in shard_counters)
        return FrontDoorStats(
            shards=len(self._engines), **counters,
            p50_latency=p50, p95_latency=p95, p99_latency=p99)

    def close(self) -> None:
        """Serve queued traffic, stop the workers, close every shard.

        Requests already admitted are served before the workers exit;
        later submissions raise.  A worker exits only once its shard is
        released, so joining the workers also waits out a batch a
        caller is running; only then are the engines closed.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for ready in self._ready:
                ready.notify()
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
                f"max_batch={self.max_batch}, "
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
