"""The sharded serving front door (repro.serving.frontdoor).

Six contracts are enforced here:

* **Equivalence** — a 104-request mixed-accuracy workload through the
  front door at low load is response-identical to the direct
  ``engine.serve(requests, programs)`` path (same bins, outputs,
  escalation and fallback accounting, executions and stacked calls),
  at one shard or three.
* **Explicit refusal** — deadline-expired and queue-rejected requests
  resolve to explicit error responses and are counted; nothing is
  silently dropped, and every stats snapshot balances
  (``submitted == completed + rejected + expired + queued``).
* **Failure containment** — a shard whose execution raises (a crashed
  backend, a killed worker process) resolves every request of that
  batch with an explicit error and keeps serving.
* **Accuracy shedding** — under a forced shed level, traffic is routed
  to cheaper bins in cost order, stamped ``degraded``, and never below
  a request's floor bin.
* **One snapshot, one latency** — ``FrontDoorStats`` counts every
  resolved request (``requests == served + errors == completed``), and
  its percentiles are exactly those of the ``ServeResponse.latency``
  it stamps; a front door that has not completed a request yet
  reports zeros, not a crash.
* **One booking** — the door records each executed batch once, so
  telemetry's per-bin served, escalation and fallback counts, summed
  over bins, equal ``FrontDoorStats`` (its errors too, less the
  refusals that never reached a bin), and a served rule that raises
  ``CostLimitExceeded`` resolves with an error in its bin, counts once
  and leaves the door serving.

A Hypothesis state machine then drives random interleavings of
submits, sync serves, held shards, hot swaps, stats and close, checking
the refusal and outcome accounting in every step, and that every
request runs on the program version it was admitted under.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.compiler.compile import compile_program
from repro.errors import ConfigError
from repro.lang.metrics import AccuracyMetric
from repro.lang.transform import Transform
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ShardPlan,
    TrialRequest,
    backend_from_spec,
)
from repro.runtime.batching import run_batch_stacked
from repro.runtime.executor import TunedProgram
from repro.runtime.policy import (
    SheddingPolicy,
    plan_request,
    update_shed_level,
)
from repro.runtime.timing import CostLimitExceeded
import repro.serving.frontdoor as frontdoor_module
from repro.serving import (
    FrontDoor,
    ServeRequest,
    ServeResponse,
    ServingEngine,
    latency_summary,
)

from tests.test_backends import HoldWorker, KillWorker, tune_pickmean
from tests.test_serving import mixed_requests

HIGHER = AccuracyMetric(lambda outputs, inputs: 0.0, "higher")


# ----------------------------------------------------------------------
# Doubles: a duck-typed shard engine with a controllable gate
# ----------------------------------------------------------------------
FAKE_BINS = (0.5, 0.9, 0.99)


class FakeTuned:
    """Tuned-program double: bins, a metric and a compiled root."""

    metric = HIGHER
    program = SimpleNamespace(root="fake")

    def __init__(self, bins=FAKE_BINS):
        self.bins = bins


class GateEngine:
    """Shard-engine double whose ``serve`` blocks on a gate.

    Lets tests hold a shard busy (to queue traffic behind it
    deterministically) and inspect exactly which requests — at which
    accuracies and batch sizes — reached execution.  Each response
    reports the bin dynamic bin lookup picks on the program the
    request was admitted under.
    """

    def __init__(self, *, open_gate: bool = False, delay: float = 0.0,
                 batch_size: int = 64):
        self.batch_size = batch_size
        self.gate = threading.Event()
        self.started = threading.Event()
        self.batches: list[list[ServeRequest]] = []
        self.threads: list[threading.Thread] = []  # one per serve call
        self.closed = False
        self.delay = delay
        if open_gate:
            self.gate.set()

    def serve(self, requests, programs, counters=None):
        self.threads.append(threading.current_thread())
        self.started.set()
        assert self.gate.wait(10.0), "test gate never released"
        time.sleep(self.delay)
        self.batches.append(list(requests))
        return [ServeResponse(
            program=request.program, ok=True, outputs={"tuned": tuned},
            bin_target=plan_request(tuned.bins, tuned.metric,
                                    accuracy=request.accuracy).start,
            requested_accuracy=request.accuracy,
            achieved_accuracy=1.0, guarantee=None)
            for request, tuned in zip(requests, programs)]

    def close(self):
        self.closed = True


class RaisingEngine(GateEngine):
    """Shard-engine double whose first ``serve`` call raises, as a
    crashed backend does; later calls serve normally."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.failures = 1

    def serve(self, requests, programs, counters=None):
        self.started.set()
        assert self.gate.wait(10.0), "test gate never released"
        if self.failures:
            self.failures -= 1
            raise RuntimeError("backend crashed")
        return super().serve(requests, programs)


def fake_request(accuracy=0.99, floor=None):
    return ServeRequest(program="fake", inputs={}, n=8.0,
                        accuracy=accuracy, floor=floor)


def fake_door(engines, **kwargs) -> FrontDoor:
    """A front door over engine doubles, serving ``FakeTuned`` as
    ``"fake"``."""
    door = FrontDoor(engines, **kwargs)
    door.register("fake", FakeTuned())
    return door


# ----------------------------------------------------------------------
# Equivalence with the direct engine path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tuned():
    _, result = tune_pickmean()
    return result.tuned_program()


class TestFrontDoorEquivalence:
    @pytest.mark.parametrize("shards", [3, 1])
    def test_104_requests_match_direct_engine(self, tuned, shards):
        requests = mixed_requests(104)
        reference = Counter()
        with ServingEngine() as engine:
            direct = engine.serve(requests, [tuned] * len(requests),
                                  counters=reference)
        with FrontDoor.build(f"async:{shards}x1", shard_backend="serial",
                             shedding=None) as door:
            door.register("pickmean", tuned)
            responses = door.serve(requests)
            stats = door.stats()

        assert len(responses) == len(requests)
        for mine, theirs in zip(responses, direct):
            assert mine.ok == theirs.ok
            assert mine.error == theirs.error
            assert mine.bin_target == theirs.bin_target
            assert mine.fallback == theirs.fallback
            assert mine.escalations == theirs.escalations
            assert mine.achieved_accuracy == theirs.achieved_accuracy
            if mine.ok:
                assert mine.outputs["est"] == theirs.outputs["est"]
            assert mine.degraded == 0
        assert stats.executions == reference["executions"]
        assert stats.stacked_calls == reference["stacked_calls"]

        # Full accounting: every request completed, nothing refused.
        assert stats.shards == shards
        assert stats.submitted == 104
        assert stats.completed == 104
        assert stats.rejected == stats.expired == 0
        assert stats.shed_level == 0 and stats.degraded == 0
        # The tier counts every response its shards answered.
        assert stats.requests == stats.served + stats.errors == 104
        assert stats.served == sum(r.ok for r in direct)
        assert stats.escalations == sum(r.escalations for r in direct)
        assert stats.fallbacks == sum(r.fallback for r in direct)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class TestBuild:
    def test_spec_expands_to_shards(self):
        with FrontDoor.build("async:4x2", shard_backend="serial") as door:
            assert door.shards == 4
            assert len(door.shard_engines) == 4

    def test_plan_accepted_directly(self):
        with FrontDoor.build(ShardPlan(shards=2, workers=1),
                             shard_backend="serial") as door:
            assert door.shards == 2

    def test_non_async_spec_rejected(self):
        with pytest.raises(ConfigError, match="async"):
            FrontDoor.build("process:2")

    def test_plan_default_backend_is_process_pool(self):
        plan = backend_from_spec("async:2x3", allow_sharded=True)
        assert plan.shard_backend_spec == "process:3"

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigError, match="shard"):
            FrontDoor([])

    @pytest.mark.parametrize("kwargs, match", [
        (dict(queue_limit=0), "queue_limit"),
        (dict(deadline=0.0), "deadline"),
        (dict(deadline=float("nan")), "deadline"),
    ])
    def test_bad_bounds_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            FrontDoor([GateEngine()], **kwargs)


# ----------------------------------------------------------------------
# Deadlines, rejection, and accounting — nothing is silently dropped
# ----------------------------------------------------------------------
class TestRefusalAccounting:
    def test_deadline_expiry_is_explicit(self):
        engine = GateEngine()
        door = fake_door([engine], deadline=0.05, shedding=None)
        try:
            # First request drains immediately and blocks the shard;
            # the second waits in queue past its deadline.
            first = door.submit(fake_request())
            assert engine.started.wait(5.0)
            second = door.submit(fake_request())
            time.sleep(0.15)
            engine.gate.set()

            assert first.result(5.0).ok
            refused = second.result(5.0)
            assert not refused.ok
            assert "deadline expired" in refused.error
            assert refused.outputs is None
            assert refused.latency >= 0.05  # its time in the queue

            stats = door.stats()
            assert stats.submitted == 2
            assert stats.completed == 1
            assert stats.expired == 1
            assert stats.rejected == 0
            assert stats.requests == stats.served == 1
        finally:
            door.close()

    def test_full_queues_reject(self):
        engine = GateEngine()
        door = fake_door([engine], queue_limit=2, shedding=None)
        try:
            in_flight = door.submit(fake_request())
            assert engine.started.wait(5.0)
            queued = [door.submit(fake_request()) for _ in range(2)]
            overflow = door.submit(fake_request())

            refused = overflow.result(5.0)  # resolves *before* release
            assert not refused.ok
            assert "queues full" in refused.error

            engine.gate.set()
            assert in_flight.result(5.0).ok
            assert all(f.result(5.0).ok for f in queued)

            stats = door.stats()
            assert stats.submitted == 4
            assert stats.completed == 3
            assert stats.rejected == 1
            assert stats.completed + stats.rejected + stats.expired \
                == stats.submitted
            assert stats.requests == stats.served == 3
        finally:
            door.close()

    def test_sync_batch_beyond_queue_limit_is_refused(self):
        # serve() admits its whole batch in one critical section, so
        # no drain can make room mid-batch: exactly queue_limit
        # requests are admitted and the rest are refused.
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], queue_limit=2, shedding=None)
        try:
            responses = door.serve([fake_request() for _ in range(5)])
            assert [r.ok for r in responses] == [True, True] + [False] * 3
            assert all("queues full" in r.error for r in responses[2:])
            assert [len(b) for b in engine.batches] == [2]
            stats = door.stats()
            assert (stats.completed, stats.rejected) == (2, 3)
        finally:
            door.close()

    def test_every_snapshot_balances_under_concurrent_submits(self):
        # Four threads submit while a fifth polls stats(); every
        # snapshot must balance, batches in execution included.
        engine = GateEngine(open_gate=True, delay=0.002)
        door = fake_door([engine], queue_limit=8, shedding=None)
        stop = threading.Event()
        unbalanced: list = []

        def poll():
            while not stop.is_set():
                try:
                    s = door.stats()
                except Exception as exc:  # a torn read, e.g. a deque
                    unbalanced.append(exc)  # mutated mid-iteration
                    continue
                if s.submitted != (s.completed + s.rejected + s.expired
                                   + s.queued):
                    unbalanced.append(s)

        def submit_many():
            for future in [door.submit(fake_request())
                           for _ in range(50)]:
                assert future.result(10.0) is not None

        poller = threading.Thread(target=poll)
        submitters = [threading.Thread(target=submit_many)
                      for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-update often
        try:
            poller.start()
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(30.0)
            stop.set()
            poller.join(10.0)
            final = door.stats()
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            door.close()
        assert not any(t.is_alive() for t in [poller, *submitters])
        assert unbalanced == []
        assert final.submitted == 200 and final.queued == 0
        assert final.completed + final.rejected == 200
        assert final.completed == sum(len(b) for b in engine.batches)

    def test_queued_requests_coalesce_into_one_batch(self):
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        try:
            first = door.submit(fake_request())
            assert engine.started.wait(5.0)
            rest = [door.submit(fake_request()) for _ in range(5)]
            engine.gate.set()
            first.result(5.0)
            for future in rest:
                future.result(5.0)
            # One blocked head-of-line request, then the five queued
            # behind it drain as a single micro-batch.
            assert [len(b) for b in engine.batches] == [1, 5]
        finally:
            door.close()


# ----------------------------------------------------------------------
# One queue, shared by every shard
# ----------------------------------------------------------------------
def held_and_other(engines):
    """``(held, other)``: the gated engine whose shard took the first
    request, and the other one."""
    wait_until(lambda: any(engine.started.is_set() for engine in engines))
    return engines if engines[0].started.is_set() else engines[::-1]


class TestWorkSharing:
    def test_idle_shard_takes_what_a_held_shard_would_strand(self):
        # Routing at admission would queue every other request behind
        # the held shard; from one queue the open shard takes them all.
        engines = [GateEngine(), GateEngine()]
        door = fake_door(engines, shedding=None)
        try:
            first = door.submit(fake_request())
            held, other = held_and_other(engines)
            other.gate.set()
            rest = [door.submit(fake_request()) for _ in range(3)]
            assert all(future.result(5.0).ok for future in rest)
            assert not first.done() and held.batches == []
            assert sum(len(batch) for batch in other.batches) == 3
            held.gate.set()
            assert first.result(5.0).ok
            stats = door.stats()
            assert (stats.submitted, stats.completed, stats.queued) \
                == (4, 4, 0)
        finally:
            for engine in engines:
                engine.gate.set()
            door.close()


# ----------------------------------------------------------------------
# A shard whose execution raises fails its batch, not the tier
# ----------------------------------------------------------------------
class TestShardFailure:
    def test_raising_engine_resolves_its_batch_and_keeps_serving(self):
        engine = RaisingEngine()
        door = fake_door([engine], shedding=None)
        try:
            doomed = door.submit(fake_request())
            assert engine.started.wait(5.0)
            queued = [door.submit(fake_request()) for _ in range(2)]
            engine.gate.set()

            failed = doomed.result(5.0)
            assert not failed.ok and failed.outputs is None
            assert "RuntimeError: backend crashed" in failed.error
            assert all(future.result(5.0).ok for future in queued)
            assert door.serve([fake_request()])[0].ok
            stats = door.stats()
            assert stats.submitted == stats.completed == 4
            assert stats.queued == 0
            # The crashed batch's refusal is an error, not a gap.
            assert (stats.served, stats.errors) == (3, 1)
        finally:
            door.close()

    def test_killed_process_worker_fails_its_batch_only(self, tuned):
        engine = ServingEngine(backend=ProcessPoolBackend(
            max_workers=1, start_method="spawn"))
        door = FrontDoor([engine], shedding=None)
        try:
            door.register("pickmean", tuned)
            healthy = mixed_requests(2)
            poisoned = [healthy[0], ServeRequest(
                program="pickmean", n=healthy[1].n,
                inputs={**healthy[1].inputs, "die": KillWorker()})]
            # serve() admits both in one batch, so they reach the
            # pool together; a thread bounds the wait should the
            # batch never resolve.
            served: list = []
            caller = threading.Thread(
                target=lambda: served.extend(door.serve(poisoned)),
                daemon=True)
            caller.start()
            caller.join(30.0)
            assert len(served) == 2, "the failed batch never resolved"
            for response in served:
                assert not response.ok
                assert "BrokenProcessPool" in response.error
            # The dead pool was dropped: the next batch gets a fresh one.
            assert all(r.ok for r in door.serve(healthy))
            assert door.stats().completed == 4
        finally:
            door.close()

    def test_close_waits_out_a_process_batch_mid_flight(self, tuned,
                                                        tmp_path):
        """``close()`` while a process worker is mid-batch: the close
        waits the batch out, serves what queued behind it, resolves
        every admitted future, and shuts the shard's pools down."""
        backend = ProcessPoolBackend(max_workers=1, start_method="spawn")
        door = FrontDoor([ServingEngine(backend=backend)], shedding=None)
        release = tmp_path / "release"
        try:
            door.register("pickmean", tuned)
            healthy = mixed_requests(6)
            held = [healthy[0], ServeRequest(
                program="pickmean", n=healthy[1].n,
                inputs={**healthy[1].inputs,
                        "hold": HoldWorker(release)})]
            # serve() admits both in one batch, so they reach the pool
            # together and the worker holds the whole batch.
            served: list = []
            caller = threading.Thread(
                target=lambda: served.extend(door.serve(held)),
                daemon=True)
            caller.start()
            wait_until((tmp_path / "release.held").exists, timeout=60.0)
            queued = [door.submit(request) for request in healthy[2:]]
            (pool,) = [pool for _, pool in backend._pools.values()]
            closer = threading.Thread(target=door.close, daemon=True)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive(), "close did not wait out the batch"
            assert not served and not any(f.done() for f in queued)
            with pytest.raises(RuntimeError, match="closed"):
                door.submit(healthy[0])   # closing: no new admissions
            release.touch()
            closer.join(60.0)
            caller.join(10.0)
            assert not closer.is_alive(), "close never returned"
            responses = served + [future.result(timeout=0)
                                  for future in queued]
            assert len(responses) == 6
            assert all(response.ok for response in responses)
            stats = door.stats()
            assert stats.submitted == stats.completed == 6
            assert stats.queued == 0
            assert not backend._pools
            with pytest.raises(RuntimeError):
                pool.submit(int)   # the shard's pool is shut down
        finally:
            release.touch()
            door.close()


# ----------------------------------------------------------------------
# Caller-runs: an idle shard runs a sync serve on the caller's thread
# ----------------------------------------------------------------------
def returns_within(fn, timeout=10.0):
    """``(fn(), thread)`` for ``fn`` run on a fresh daemon thread; fails
    instead of hanging when ``fn`` does not return within ``timeout``."""
    result: list = []
    thread = threading.Thread(target=lambda: result.append(fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert result, f"no return within {timeout}s: a deadlock"
    return result[0], thread


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestCallerRuns:
    def test_idle_door_serves_on_the_calling_thread(self):
        engine = GateEngine(open_gate=True)
        with fake_door([engine], shedding=None) as door:
            responses = door.serve([fake_request() for _ in range(3)])
            stats = door.stats()
        assert all(response.ok for response in responses)
        assert engine.threads == [threading.current_thread()]
        assert [len(batch) for batch in engine.batches] == [3]
        assert (stats.submitted, stats.completed, stats.queued) == (3, 3, 0)

    def test_submit_never_runs_on_the_calling_thread(self):
        engine = GateEngine(open_gate=True)
        with fake_door([engine], shedding=None) as door:
            assert door.submit(fake_request()).result(5.0).ok
        [worker] = engine.threads
        assert worker is not threading.current_thread()
        assert worker.name == "repro-shard-0"

    def test_idle_door_never_wakes_its_worker(self):
        # Releasing a shard wakes its worker only for queued work or a
        # closing door; a caller-run batch on an idle shard has neither.
        engine = GateEngine(open_gate=True)
        with fake_door([engine], shedding=None) as door:
            ready = door._ready
            wait_until(lambda: len(ready._waiters) == 1)  # worker asleep
            wakes: list = []
            sleep = ready.wait

            def counting_wait(*args):
                wakes.append(threading.current_thread())
                return sleep(*args)

            ready.wait = counting_wait
            for _ in range(200):
                assert door.serve([fake_request()])[0].ok
            time.sleep(0.01)
            assert wakes == []
        assert engine.threads == [threading.current_thread()] * 200

    def test_busy_shard_queues_the_callers_batch_for_its_worker(self):
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        try:
            held = door.submit(fake_request())
            assert engine.started.wait(5.0)  # the worker holds the shard
            served: list = []
            caller = threading.Thread(target=lambda: served.extend(
                door.serve([fake_request(), fake_request()])))
            caller.start()
            wait_until(lambda: door.stats().queued == 3)
            engine.gate.set()
            caller.join(10.0)
            assert held.result(5.0).ok
            assert [response.ok for response in served] == [True, True]
            worker = engine.threads[0]
            assert engine.threads == [worker, worker]
            assert [len(batch) for batch in engine.batches] == [1, 2]
        finally:
            engine.gate.set()
            door.close()

    def test_worker_waits_while_a_caller_runs_its_shard(self):
        # One batch per shard at a time: a request queued behind a
        # caller-run batch stays queued until that batch is booked.
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        try:
            served: list = []
            caller = threading.Thread(target=lambda: served.extend(
                door.serve([fake_request()])))
            caller.start()
            assert engine.started.wait(5.0)
            queued = door.submit(fake_request())
            time.sleep(0.05)
            assert len(engine.threads) == 1  # the worker did not start
            assert door.stats().queued == 2
            engine.gate.set()
            assert queued.result(5.0).ok
            caller.join(10.0)
            assert served[0].ok
            assert engine.threads[0] is caller
            assert engine.threads[1].name == "repro-shard-0"
        finally:
            engine.gate.set()
            door.close()

    def test_drain_of_only_expired_requests_releases_the_shard(self):
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], deadline=1e-9, shedding=None)
        try:
            [refused] = door.serve([fake_request()])
            assert not refused.ok and "deadline expired" in refused.error
            assert engine.batches == []
            door.deadline = None
            # A shard left busy would park this request for a worker
            # that waits on the busy flag forever.
            [response], thread = returns_within(
                lambda: door.serve([fake_request()]))
            assert response.ok
            assert engine.threads == [thread]
            stats = door.stats()
            assert (stats.submitted, stats.completed, stats.expired,
                    stats.queued) == (2, 1, 1, 0)
        finally:
            door.close()

    def test_interrupted_caller_run_batch_is_booked_and_released(self):
        class Interrupt(BaseException):
            pass

        class InterruptedEngine(GateEngine):
            def serve(self, requests, programs, counters=None):
                if not self.batches:
                    self.batches.append(list(requests))
                    raise Interrupt
                return super().serve(requests, programs)

        engine = InterruptedEngine(open_gate=True)
        door = fake_door([engine], shedding=None)
        try:
            with pytest.raises(Interrupt):
                door.serve([fake_request()])
            stats = door.stats()
            assert (stats.completed, stats.errors, stats.queued) == (1, 1, 0)
            [response], thread = returns_within(
                lambda: door.serve([fake_request()]))
            assert response.ok and engine.threads == [thread]
        finally:
            door.close()

    def test_close_waits_for_a_caller_run_batch(self):
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        served: list = []
        caller = threading.Thread(target=lambda: served.extend(
            door.serve([fake_request()])))
        caller.start()
        assert engine.started.wait(5.0)
        assert engine.threads == [caller]
        closer = threading.Thread(target=door.close)
        closer.start()
        closer.join(0.1)
        assert closer.is_alive() and not engine.closed
        engine.gate.set()
        closer.join(10.0)
        caller.join(10.0)
        assert not closer.is_alive() and engine.closed
        assert served[0].ok
        stats = door.stats()
        assert (stats.submitted, stats.completed, stats.queued) == (1, 1, 0)

    def test_serve_from_a_done_callback_does_not_deadlock(self):
        # The callback runs on the shard's worker thread; the shard is
        # released before the future resolves, so the nested serve()
        # claims it and runs on that thread instead of waiting on it.
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        nested: list = []
        done = threading.Event()

        def serve_again(future):
            nested.extend(door.serve([fake_request()]))
            done.set()

        first = door.submit(fake_request())
        assert engine.started.wait(5.0)
        first.add_done_callback(serve_again)
        engine.gate.set()
        assert done.wait(10.0), "serve() from a done-callback deadlocked"
        assert first.result(5.0).ok and nested[0].ok
        assert engine.threads == [engine.threads[0]] * 2
        door.close()

    def test_serve_from_a_done_callback_behind_queued_traffic(self):
        # The nested serve() queues behind a request already waiting on
        # the shard whose worker runs the callback.  That worker runs
        # its own shard's batches until the nested futures resolve,
        # instead of waiting on itself.
        engine = GateEngine()
        door = fake_door([engine], shedding=None)
        nested: list = []
        done = threading.Event()

        def serve_again(future):
            nested.extend(door.serve([fake_request()]))
            done.set()

        first = door.submit(fake_request())
        assert engine.started.wait(5.0)
        first.add_done_callback(serve_again)
        second = door.submit(fake_request())
        engine.gate.set()
        assert done.wait(10.0), "serve() from a done-callback deadlocked"
        assert first.result(5.0).ok and second.result(5.0).ok
        assert nested[0].ok
        # The queued request and the nested one ran as one batch on
        # the worker that ran the first.
        assert [len(batch) for batch in engine.batches] == [1, 2]
        assert engine.threads == [engine.threads[0]] * 2
        stats = door.stats()
        assert (stats.submitted, stats.completed, stats.rejected,
                stats.expired, stats.queued) == (3, 3, 0, 0, 0)
        door.close()

    def test_serve_from_a_done_callback_across_shards(self):
        # The nested pair finds the queue empty and runs as one batch
        # on the callback's own shard, though the other shard is idle.
        engines = [GateEngine(), GateEngine()]
        door = fake_door(engines, shedding=None)
        nested: list = []
        done = threading.Event()

        def serve_again(future):
            nested.extend(door.serve([fake_request(), fake_request()]))
            done.set()

        first = door.submit(fake_request())
        held, other = held_and_other(engines)
        other.gate.set()
        first.add_done_callback(serve_again)
        held.gate.set()
        assert done.wait(10.0), "serve() from a done-callback deadlocked"
        assert len(nested) == 2 and all(r.ok for r in nested)
        assert [len(held.batches), len(other.batches)] == [2, 0]
        stats = door.stats()
        assert (stats.submitted, stats.completed, stats.queued) == (3, 3, 0)
        door.close()

    def test_serve_from_a_done_callback_runs_every_queued_batch(self):
        # With one request per batch, the nested serve() claims the
        # shard for the request queued ahead of it only; the worker
        # then runs the nested request's own batch itself.
        engine = GateEngine(batch_size=1)
        door = fake_door([engine], shedding=None)
        nested: list = []
        done = threading.Event()

        def serve_again(future):
            nested.extend(door.serve([fake_request()]))
            done.set()

        first = door.submit(fake_request())
        assert engine.started.wait(5.0)
        first.add_done_callback(serve_again)
        second = door.submit(fake_request())
        engine.gate.set()
        assert done.wait(10.0), "serve() from a done-callback deadlocked"
        assert first.result(5.0).ok and second.result(5.0).ok
        assert nested[0].ok
        assert [len(batch) for batch in engine.batches] == [1, 1, 1]
        assert engine.threads == [engine.threads[0]] * 3
        stats = door.stats()
        assert (stats.submitted, stats.completed, stats.rejected,
                stats.expired, stats.queued) == (3, 3, 0, 0, 0)
        door.close()

    def test_serve_from_a_done_callback_expires_stale_traffic(self):
        # The request queued ahead of the nested one outlives its
        # deadline: the worker refuses it as expired, runs the nested
        # request, and the books still balance.
        engine = GateEngine(batch_size=1)
        door = fake_door([engine], deadline=0.2, shedding=None)
        nested: list = []
        done = threading.Event()

        def serve_again(future):
            nested.extend(door.serve([fake_request()]))
            done.set()

        first = door.submit(fake_request())
        assert engine.started.wait(5.0)
        first.add_done_callback(serve_again)
        second = door.submit(fake_request())
        time.sleep(0.4)
        engine.gate.set()
        assert done.wait(10.0), "serve() from a done-callback deadlocked"
        assert first.result(5.0).ok and nested[0].ok
        refused = second.result(5.0)
        assert not refused.ok and "deadline expired" in refused.error
        assert [len(batch) for batch in engine.batches] == [1, 1]
        assert engine.threads == [engine.threads[0]] * 2
        stats = door.stats()
        assert stats.submitted == (stats.completed + stats.rejected
                                   + stats.expired + stats.queued)
        assert (stats.submitted, stats.completed, stats.expired,
                stats.queued) == (3, 2, 1, 0)
        door.close()


# ----------------------------------------------------------------------
# A rule that raises inside a fused stacked wave
# ----------------------------------------------------------------------
def _doubled_metric(outputs, inputs):
    return float(np.tanh(abs(np.mean(outputs["ys"]))))


def _double(ctx, xs):
    if np.any(xs[..., 0] < 0.0):
        raise ValueError("poisoned input")
    ctx.add_cost(float(xs.size))
    return 2.0 * xs + 1.0


@pytest.fixture(scope="module")
def doubler():
    """A batchable program whose one rule raises on any slice whose
    first entry is negative, so one bad request fails a fused wave."""
    transform = Transform("doubler", inputs=("xs",), outputs=("ys",),
                          accuracy_metric=_doubled_metric,
                          accuracy_bins=(0.5, 0.9), batchable=True)
    transform.rule(outputs=("ys",), inputs=("xs",),
                   name="double")(_double)
    program, _ = compile_program(transform)
    return program


def doubler_inputs(size, seed, poisoned=False):
    xs = np.random.default_rng(seed).uniform(0.5, 1.5, size)
    if poisoned:
        xs[0] = -1.0
    return {"xs": xs}


#: (size, seed, poisoned): two fusable groups, one holding a bad slice.
WAVE = [(8, 0, False), (8, 1, False), (16, 2, False), (8, 3, True),
        (16, 4, False), (8, 5, False)]


class TestFusedWaveFailure:
    def test_run_batch_stacked_isolates_the_raising_slice(self, doubler):
        config = doubler.default_config()
        requests = [TrialRequest(
            n=float(size), trial_index=index,
            seed=seed, config=config,
            inputs=doubler_inputs(size, seed, poisoned))
            for index, (size, seed, poisoned) in enumerate(WAVE)]
        counters: dict = {}
        outcomes = run_batch_stacked(doubler, requests, SerialBackend(),
                                     collect_outputs=True,
                                     counters=counters)
        # The size-16 group fused; the group holding the bad slice
        # declined and ran request by request.
        assert counters == {"stacked_calls": 1, "stacked_requests": 2}
        for (_, _, poisoned), request, outcome in zip(WAVE, requests,
                                                      outcomes):
            if poisoned:
                assert outcome.failed
                assert "poisoned input" in outcome.error
                continue
            [scalar] = SerialBackend().run_batch(
                doubler, [request], collect_outputs=True)
            assert not outcome.failed
            assert outcome.objective == scalar.objective
            assert outcome.accuracy == scalar.accuracy
            assert np.array_equal(outcome.outputs["ys"],
                                  scalar.outputs["ys"])

    def test_front_door_fails_only_the_raising_request(self, doubler):
        tuned = TunedProgram(doubler, {target: doubler.default_config()
                                       for target in (0.5, 0.9)})
        requests = [ServeRequest(
            program="doubler", inputs=doubler_inputs(size, seed, poisoned),
            n=float(size), accuracy=0.9, seed=seed)
            for size, seed, poisoned in WAVE]
        with FrontDoor([ServingEngine()], shedding=None) as door:
            door.register("doubler", tuned)
            responses = door.serve(requests)
            stats = door.stats()
        for (_, _, poisoned), request, response in zip(WAVE, requests,
                                                       responses):
            if poisoned:
                assert not response.ok and response.outputs is None
                assert "execution failed" in response.error
                assert "poisoned input" in response.error
                continue
            scalar = doubler.execute(request.inputs, request.n,
                                     tuned.bin_configs[0.9],
                                     seed=request.seed)
            assert response.ok
            assert np.array_equal(response.outputs["ys"],
                                  scalar.outputs["ys"])
            assert response.achieved_accuracy == _doubled_metric(
                scalar.outputs, request.inputs)
        assert (stats.completed, stats.served, stats.errors) == (6, 5, 1)
        assert stats.stacked_calls == 1 and stats.stacked_requests == 2


# ----------------------------------------------------------------------
# Accuracy shedding through the admission controller
# ----------------------------------------------------------------------
def always_hot(max_level):
    """A policy whose high watermark is 0: every admission is overload,
    so the shed level climbs one step per request — deterministic
    without real queue pressure."""
    return SheddingPolicy(low_watermark=0.0, high_watermark=0.0,
                          max_level=max_level)


class TestShedding:
    def test_degrades_in_cost_order_and_stamps_responses(self):
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], shedding=always_hot(2))
        try:
            responses = [door.submit(fake_request(0.99)).result(5.0)
                         for _ in range(3)]
            # Level climbs 1 → 2 → 2 (capped): one bin cheaper, then
            # two, in least-accurate-first (= cheapest-first) order.
            executed = [batch[0].accuracy for batch in engine.batches]
            assert executed == [0.9, 0.5, 0.5]
            assert [r.degraded for r in responses] == [1, 2, 2]
            stats = door.stats()
            assert stats.shed_level == 2
            assert stats.degraded == 3 and stats.degrade_steps == 5
        finally:
            door.close()

    def test_floor_bin_is_respected(self):
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], shedding=always_hot(8))
        try:
            door.submit(fake_request(0.99)).result(5.0)  # level now 1
            floored = door.submit(
                fake_request(0.99, floor=0.9)).result(5.0)
            unfloored = door.submit(fake_request(0.99)).result(5.0)
            assert engine.batches[1][0].accuracy == 0.9  # not below floor
            assert floored.degraded == 1
            assert engine.batches[2][0].accuracy == 0.5
            assert unfloored.degraded == 2
        finally:
            door.close()

    @pytest.mark.parametrize("budget", [None, 1e-9, 10.0])
    def test_recent_p95_summarised_only_against_a_budget(
            self, monkeypatch, budget):
        # Each controller step must land on the level it would reach
        # fed the recent window's p95, as it was before the gate;
        # without a budget the window is never summarised at all.
        summarised = []
        steps = []

        def counting_summary(latencies):
            summarised.append(len(latencies))
            return latency_summary(latencies)

        def recording_step(level, fill, policy, *, p95=None):
            result = update_shed_level(level, fill, policy, p95=p95)
            steps.append((level, fill, p95, list(door._recent), result))
            return result

        monkeypatch.setattr(frontdoor_module, "latency_summary",
                            counting_summary)
        monkeypatch.setattr(frontdoor_module, "update_shed_level",
                            recording_step)
        policy = SheddingPolicy(p95_budget=budget, max_level=2)
        door = fake_door([GateEngine(open_gate=True)], shedding=policy)
        try:
            for _ in range(6):
                assert door.submit(fake_request()).result(5.0).ok
        finally:
            door.close()
        assert len(steps) == 6 and steps[-1][3]  # the window filled
        level = 0
        for before, fill, p95, recent, after in steps:
            assert before == level
            windowed = latency_summary(recent)[1] if recent else None
            assert p95 == (None if budget is None else windowed)
            level = update_shed_level(level, fill, policy, p95=windowed)
            assert after == level
        if budget is None:
            assert summarised == []
        else:
            assert summarised == [len(step[3]) for step in steps
                                  if step[3]]
        if budget == 1e-9:  # every request is over budget
            assert level == 2

    def test_shedding_disabled_never_degrades(self):
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], shedding=None)
        try:
            response = door.submit(fake_request(0.99)).result(5.0)
            assert response.degraded == 0
            assert engine.batches[0][0].accuracy == 0.99
        finally:
            door.close()


# ----------------------------------------------------------------------
# One latency; stats on empty windows; lifecycle
# ----------------------------------------------------------------------
class TestStatsAndLifecycle:
    def test_response_latency_is_the_stats_latency(self, tuned):
        # One definition: the percentiles in stats() are computed from
        # exactly the admission-to-response latencies on the responses.
        with FrontDoor.build("async:1x1", shard_backend="serial",
                             shedding=None) as door:
            door.register("pickmean", tuned)
            responses = [door.serve([request])[0]
                         for request in mixed_requests(24)]
            stats = door.stats()
        latencies = [response.latency for response in responses]
        assert all(latency > 0.0 for latency in latencies)
        assert latency_summary(latencies) == (
            stats.p50_latency, stats.p95_latency, stats.p99_latency)

    def test_empty_latency_summary_is_zero(self):
        assert latency_summary([]) == (0.0, 0.0, 0.0)

    def test_fresh_frontdoor_stats_do_not_raise(self):
        # Regression: a front door reporting before its first
        # completed request must summarise to zeros, not crash on an
        # empty window.
        door = FrontDoor([GateEngine()], shedding=None)
        try:
            stats = door.stats()
            assert stats.submitted == stats.requests == 0
            assert (stats.p50_latency, stats.p95_latency,
                    stats.p99_latency) == (0.0, 0.0, 0.0)
            assert str(stats)  # renders without traffic too
        finally:
            door.close()

    def test_close_is_idempotent_and_final(self):
        engine = GateEngine(open_gate=True)
        door = fake_door([engine], shedding=None)
        assert door.submit(fake_request()).result(5.0).ok
        door.close()
        door.close()
        with pytest.raises(RuntimeError, match="closed"):
            door.submit(fake_request())


# ----------------------------------------------------------------------
# Hot swaps under concurrent admission
# ----------------------------------------------------------------------
class TestConcurrentHotSwap:
    def test_each_caller_sees_versions_in_swap_order(self):
        # Four threads submit across two shards while a fifth swaps
        # forward through 40 versions.  A caller's requests are
        # admitted in order, so the versions it is served must never
        # go back; and no swap is lost or counted twice.
        versions = [FakeTuned() for _ in range(41)]
        engines = [GateEngine(open_gate=True, delay=0.0005)
                   for _ in range(2)]
        door = FrontDoor(engines, shedding=None)
        door.register("fake", versions[0])
        served: list[list] = [[] for _ in range(4)]

        def submit_many(slot):
            futures = [door.submit(fake_request()) for _ in range(60)]
            served[slot] = [future.result(10.0) for future in futures]

        def swap_all():
            for version in versions[1:]:
                door.hot_swap("fake", version)
                time.sleep(0.0002)

        threads = [threading.Thread(target=submit_many, args=(slot,))
                   for slot in range(4)]
        threads.append(threading.Thread(target=swap_all))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
            door.close()
        assert not any(thread.is_alive() for thread in threads)
        index = {id(version): i for i, version in enumerate(versions)}
        for responses in served:
            assert len(responses) == 60 and all(r.ok for r in responses)
            order = [index[id(r.outputs["tuned"])] for r in responses]
            assert order == sorted(order)
        assert door.stats().swaps == 40
        assert door.program_for("fake") is versions[-1]


# ----------------------------------------------------------------------
# Stateful accounting: any interleaving of submit/serve/stats/close
# ----------------------------------------------------------------------
accuracies = st.lists(st.sampled_from(FAKE_BINS), min_size=1,
                      max_size=4)


class FrontDoorAccounting(RuleBasedStateMachine):
    """Random interleavings of async submits, sync serves, held and
    released shards, hot swaps, stats snapshots and close.

    Two shards (one crashes on its first batch), a short queue, a
    deadline shorter than a ``pause`` and live shedding, so runs reach
    rejection, expiry, degradation and shard failure.  Every snapshot
    must balance, every future must resolve to a response, and a
    closed front door must refuse new traffic.

    Hot swaps alternate between two versions told apart by their
    bins: one tunes every bin, the other only the most accurate.  Each
    swap is bracketed by probe submits, queued behind whatever the
    shards hold, and every served probe must run on the version that
    was registered when it was admitted: a swap is linearizable by
    admission order, so once any response comes from the new version,
    no request admitted later gets the old one.
    """

    def __init__(self):
        super().__init__()
        self.engines = [GateEngine(open_gate=True, batch_size=2),
                        RaisingEngine(open_gate=True, batch_size=2)]
        self.door = FrontDoor(
            self.engines, queue_limit=2, deadline=0.002,
            shedding=SheddingPolicy(low_watermark=0.25,
                                    high_watermark=0.5, max_level=2))
        self.versions = [FakeTuned(), FakeTuned(bins=FAKE_BINS[-1:])]
        self.version = 0
        self.door.register("fake", self.versions[0])
        #: (wanted accuracy, version at admission, future)
        self.probes: list = []
        self.futures = []
        self.served = 0
        self.swaps = 0
        self.closed = False

    def _gates(self, open_gate: bool) -> None:
        for engine in self.engines:
            if open_gate:
                engine.gate.set()
            else:
                engine.gate.clear()

    @precondition(lambda self: not self.closed)
    @rule(wanted=accuracies)
    def submit(self, wanted):
        self.futures += [self.door.submit(fake_request(accuracy))
                         for accuracy in wanted]

    @precondition(lambda self: not self.closed)
    @rule(wanted=accuracies)
    def serve(self, wanted):
        # A sync caller waits for execution: shards must be released.
        self._gates(True)
        responses = self.door.serve([fake_request(accuracy)
                                     for accuracy in wanted])
        self.served += len(wanted)
        assert len(responses) == len(wanted)
        assert all(isinstance(r, ServeResponse) for r in responses)

    def _probe(self, wanted):
        for accuracy in wanted:
            future = self.door.submit(fake_request(accuracy))
            self.futures.append(future)
            self.probes.append((accuracy, self.version, future))

    @precondition(lambda self: not self.closed)
    @rule(wanted=accuracies)
    def hot_swap(self, wanted):
        self._probe(wanted)
        previous = self.door.hot_swap("fake",
                                      self.versions[1 - self.version])
        assert previous is self.versions[self.version]
        self.version = 1 - self.version
        self.swaps += 1
        self._probe(wanted)

    @rule()
    def hold(self):
        self._gates(False)

    @rule()
    def release(self):
        self._gates(True)

    @rule()
    def pause(self):
        time.sleep(0.003)  # longer than the deadline

    @rule()
    def stats(self):
        stats = self.door.stats()
        assert 0 <= stats.shed_level <= 2
        assert stats.degraded <= stats.submitted

    @rule()
    def close(self):
        self._gates(True)
        self.door.close()
        self.closed = True

    @precondition(lambda self: self.closed)
    @rule()
    def submit_after_close(self):
        with pytest.raises(RuntimeError, match="closed"):
            self.door.submit(fake_request())
        with pytest.raises(RuntimeError, match="closed"):
            self.door.serve([fake_request()])

    @invariant()
    def snapshot_balances(self):
        stats = self.door.stats()
        assert stats.submitted == (stats.completed + stats.rejected
                                   + stats.expired + stats.queued)
        assert stats.submitted == len(self.futures) + self.served
        # Every completed request was answered — a crashed shard's
        # refusals included — and counted as served or error.
        assert stats.requests == stats.served + stats.errors \
            == stats.completed

    @invariant()
    def probes_ran_on_their_admission_version(self):
        assert self.door.stats().swaps == self.swaps
        for wanted, version, future in self.probes:
            if not future.done():
                continue
            response = future.result()
            if not response.ok:
                continue  # rejected, expired or crashed: no version
            if version == 1:
                assert response.bin_target == FAKE_BINS[-1]
            else:
                # Version 0 serves the wanted bin or, shed, a cheaper
                # one; never version 1's lone top bin for a cheaper
                # request.
                assert response.bin_target <= wanted

    def teardown(self):
        self._gates(True)
        self.door.close()
        for future in self.futures:
            assert isinstance(future.result(10.0), ServeResponse)
        self.probes_ran_on_their_admission_version()
        stats = self.door.stats()
        assert stats.queued == 0
        assert stats.submitted == (stats.completed + stats.rejected
                                   + stats.expired)
        assert stats.requests == stats.served + stats.errors \
            == stats.completed


FrontDoorAccounting.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None)
TestFrontDoorAccounting = FrontDoorAccounting.TestCase


# ----------------------------------------------------------------------
# A served rule over its cost limit
# ----------------------------------------------------------------------
#: Units the priced rule may charge; it refuses any input that would
#: cost more, as a rule that charges its price before building would.
PRICE_LIMIT = 100.0


def _priced(ctx, xs):
    price = float(xs.size) ** 2
    if price > PRICE_LIMIT:
        raise CostLimitExceeded(
            f"cost {price:g} exceeded limit {PRICE_LIMIT:g}")
    ctx.add_cost(price)
    return 2.0 * xs + 1.0


@pytest.fixture(scope="module")
def priced():
    """A tuned program whose one rule raises ``CostLimitExceeded`` on
    inputs of more than 10 values, every bin on the default config."""
    transform = Transform("priced", inputs=("xs",), outputs=("ys",),
                          accuracy_metric=_doubled_metric,
                          accuracy_bins=(0.5, 0.9))
    transform.rule(outputs=("ys",), inputs=("xs",),
                   name="priced")(_priced)
    program, _ = compile_program(transform)
    return TunedProgram(program, {target: program.default_config()
                                  for target in (0.5, 0.9)})


def priced_request(size):
    return ServeRequest(program="priced", inputs=doubler_inputs(size, 0),
                        n=float(size), accuracy=0.9)


class TestServedCostLimit:
    def test_over_limit_request_fails_alone_and_the_door_serves_on(
            self, priced):
        with FrontDoor([ServingEngine()], shedding=None) as door:
            door.register("priced", priced)
            over = door.submit(priced_request(64)).result(10.0)
            stats = door.stats()
            window = door.telemetry.snapshot("priced", 0.9)
            [fine] = door.serve([priced_request(8)])
            after = door.stats()
        # Resolved with an error naming its bin and the cause, not
        # escalated: a failed execution is not an accuracy miss.
        assert not over.ok and over.outputs is None
        assert over.bin_target == 0.9 and over.escalations == 0
        assert "execution failed at bin 0.9" in over.error
        assert "CostLimitExceeded" in over.error
        # Counted once, as an error and as completed.
        assert (stats.submitted, stats.completed, stats.served,
                stats.errors, stats.executions) == (1, 1, 0, 1, 1)
        # Telemetry books one error in that bin, with no accuracy.
        assert (window.served, window.errors, window.samples) == (0, 1, 0)
        # The door serves the next request.
        assert fine.ok and fine.bin_target == 0.9
        assert (after.completed, after.served, after.errors) == (2, 1, 1)


# ----------------------------------------------------------------------
# Telemetry and stats book the same responses
# ----------------------------------------------------------------------
#: The seed that makes a :class:`CrashingEngine` raise.
CRASH_SEED = 99


class CrashingEngine(ServingEngine):
    """A shard engine whose ``serve`` raises, as a crashed backend
    does, on any batch holding a request seeded :data:`CRASH_SEED`."""

    def serve(self, requests, programs, *, counters=None):
        if any(request.seed == CRASH_SEED for request in requests):
            raise RuntimeError("backend crashed")
        return super().serve(requests, programs, counters=counters)


class TestTelemetryMatchesStats:
    def test_per_bin_windows_add_up_to_the_stats(self, tuned):
        # Mixed traffic, each request floored at its nominal bin so the
        # always-hot controller sheds none of it...
        top = max(tuned.bins)
        requests = [replace(request, floor=top if request.accuracy is None
                            else request.accuracy)
                    for request in mixed_requests(24)]
        # ...but one batch of four crashes its shard...
        requests[13] = replace(requests[13], seed=CRASH_SEED)
        # ...and one unfloored request is shed a bin below its nominal.
        shed = ServeRequest(program="pickmean",
                            inputs=requests[2].inputs, n=requests[2].n,
                            accuracy=top)
        with FrontDoor([CrashingEngine(batch_size=4),
                        CrashingEngine(batch_size=4)],
                       shedding=always_hot(1)) as door:
            door.register("pickmean", tuned)
            responses = door.serve([*requests, shed])
            stats = door.stats()
            telemetry = door.telemetry
        windows = telemetry.snapshots("pickmean")

        assert stats.shards == 2 and stats.completed == 25
        # Every kind of outcome is present...
        assert stats.escalations > 0 and stats.fallbacks > 0
        refused = [r for r in responses if r.bin_target is None]
        assert len(refused) == 4
        assert all("shard" in r.error and "backend crashed" in r.error
                   for r in refused)
        assert any(r.bin_target is not None and not r.ok
                   for r in responses)  # a verify failure, in its bin
        # ...and the windows, summed over bins, are the stats.
        assert sum(w.served for w in windows) == stats.served
        assert sum(w.escalations for w in windows) == stats.escalations
        assert sum(w.fallbacks for w in windows) == stats.fallbacks
        assert sum(w.errors for w in windows) == \
            stats.errors - len(refused)
        # The shed request served from, and was booked in, the cheaper
        # bin's window.
        shed_response = responses[-1]
        cheaper = tuned.bins[-2]
        assert (stats.degraded, shed_response.degraded) == (1, 1)
        assert shed_response.ok and shed_response.bin_target == cheaper
        assert shed_response.achieved_accuracy in \
            telemetry.accuracies("pickmean", cheaper)
