"""Serving-engine throughput across backends and batch sizes.

Tune the Poisson benchmark once (scaled down), package it as a tuned
artifact, and serve the same mixed-accuracy request batch through a
``ServingEngine`` on every execution backend at several batch sizes.
Every cell keeps one warm engine and serves the batch for several
rounds, in an order that alternates round by round, so one cold or
noisy pass cannot decide a row.  For each (backend, batch size) cell
the benchmark prints one machine-readable line::

    BENCH_JSON {"bench": "serving", "backend": "process", ...}

carrying the median req/s over the rounds, its IQR and the round
count, so CI logs double as a throughput time series.  Correctness
rides along: every cell must return bin choices and outputs identical
to the serial reference on every round, so a serving-path regression
(wrong bin, wrong output, dropped response) fails the smoke run
immediately.  No row is gated on speed.

Smoke-sized by default; set ``REPRO_BENCH_FULL=1`` for the full sweep.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import FULL, median_iqr, run_once

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.runtime.backends import ProcessPoolBackend, SerialBackend
from repro.runtime.policy import SheddingPolicy
from repro.serving import (
    FrontDoor,
    ServeRequest,
    ServingEngine,
    TunedArtifact,
    latency_summary,
)
from repro.suite import get_benchmark

WORKERS = max(2, min(4, os.cpu_count() or 1))
REQUEST_COUNT = 120 if FULL else 36
BATCH_SIZES = (8, 32, 128) if FULL else (8, 32)
#: Alternating rounds per (backend, batch size) cell.
SERVING_ROUNDS = 15 if FULL else 5
#: Alternating rounds of the step load's baseline and sharded phases.
STEP_ROUNDS = 11
SERVE_N = 7.0
TUNE_SETTINGS = TunerSettings(input_sizes=(7.0,), rounds_per_size=1,
                              mutation_attempts=4, min_trials=2,
                              max_trials=4, seed=13, initial_random=1,
                              guided_max_evaluations=6,
                              accuracy_confidence=None)

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessPoolBackend(max_workers=WORKERS),
}


def _tuned_via_artifact():
    """Tune once, then round-trip through the artifact format — the
    serving benchmark measures what deployments actually load."""
    spec = get_benchmark("poisson")
    program, _ = spec.compile()
    with ProgramTestHarness(program, spec.generate, base_seed=5,
                            cost_limit=spec.cost_limit) as harness:
        result = Autotuner(program, harness, TUNE_SETTINGS).tune()
    artifact = TunedArtifact.from_json(result.to_artifact().to_json())
    return artifact.resolve()


def _mixed_requests():
    spec = get_benchmark("poisson")
    accuracies = [1.0, 3.0, 5.0, None, 2.0, 9.99]
    requests = []
    for i in range(REQUEST_COUNT):
        rng = np.random.default_rng(2000 + i)
        requests.append(ServeRequest(
            program="poisson",
            inputs=spec.generate(int(SERVE_N), rng), n=SERVE_N,
            accuracy=accuracies[i % len(accuracies)],
            verify=(i % 4 == 0), seed=i % 3))
    return requests


def test_serving_throughput(benchmark):
    tuned = _tuned_via_artifact()
    requests = _mixed_requests()

    def run():
        cells = [(backend_name, batch_size)
                 for backend_name in BACKENDS
                 for batch_size in BATCH_SIZES]
        engines = {(name, batch_size): ServingEngine(
                       backend=BACKENDS[name](), batch_size=batch_size)
                   for name, batch_size in cells}
        rates: dict[tuple, list[float]] = {cell: [] for cell in cells}
        last: dict[tuple, list] = {}
        reference = None
        try:
            for engine in engines.values():
                engine.serve(requests[:2], [tuned] * 2)  # warm pools
            for round_index in range(SERVING_ROUNDS):
                order = cells if round_index % 2 == 0 else cells[::-1]
                for cell in order:
                    start = time.perf_counter()
                    responses = engines[cell].serve(
                        requests, [tuned] * len(requests))
                    elapsed = time.perf_counter() - start
                    key = [(r.ok, r.bin_target, r.escalations,
                            repr(r.outputs) if r.ok else None)
                           for r in responses]
                    if reference is None:
                        reference = key  # serial, batch 8, round 0
                    assert key == reference, \
                        f"{cell[0]}/batch={cell[1]} diverged from the " \
                        f"serial reference in round {round_index}"
                    rates[cell].append(len(requests) / elapsed)
                    last[cell] = responses
        finally:
            for engine in engines.values():
                engine.close()
        rows = []
        for backend_name, batch_size in cells:
            responses = last[(backend_name, batch_size)]
            fallbacks = sum(r.fallback for r in responses)
            assert len(responses) == REQUEST_COUNT
            assert fallbacks > 0  # the 9.99 requests
            median, iqr = median_iqr(rates[(backend_name, batch_size)])
            rows.append({
                "bench": "serving",
                "program": "poisson",
                "backend": backend_name,
                "batch_size": batch_size,
                "requests": len(requests),
                "rounds": SERVING_ROUNDS,
                "throughput_rps": round(median, 2),
                "throughput_rps_iqr": round(iqr, 2),
                "escalations": sum(r.escalations for r in responses),
                "fallbacks": fallbacks,
                "errors": sum(not r.ok for r in responses),
            })
        return rows

    rows = run_once(benchmark, run)
    print(f"\nServing {REQUEST_COUNT} mixed-accuracy Poisson requests "
          f"at n={SERVE_N:g} ({os.cpu_count()} cpus), median of "
          f"{SERVING_ROUNDS} alternating rounds:")
    for row in rows:
        print(f"  {row['backend']:>8}/batch={row['batch_size']:<4} "
              f"{row['throughput_rps']:8.1f} req/s "
              f"(IQR {row['throughput_rps_iqr']:.1f})  "
              f"{row['escalations']} escalations, "
              f"{row['fallbacks']} fallbacks")
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
    assert all(row["throughput_rps"] > 0 for row in rows)


# ----------------------------------------------------------------------
# Front-door step load: baseline stream -> sharded tier -> overload
# ----------------------------------------------------------------------
def _summary_ms(values):
    p50, p95, p99 = latency_summary(values)
    return (round(p50 * 1e3, 3), round(p95 * 1e3, 3),
            round(p99 * 1e3, 3))


def _simulate_overloaded_stream(latencies, offered_rps):
    """Sojourn-time p95 of a single serve_one worker at an offered
    arrival rate: requests arrive on a fixed cadence and queue behind
    the one in service — the unsharded engine under open-loop load,
    without needing a second experiment."""
    busy = 0.0
    sojourns = []
    for index, latency in enumerate(latencies):
        arrival = index / offered_rps
        busy = max(busy, arrival) + latency
        sojourns.append(busy - arrival)
    return latency_summary(sojourns)[1]


def _step_load(tuned, requests):
    """The four step-load phases; returns one BENCH_JSON row each.

    1. **baseline**: one engine, one request at a time — the per-
       request stream an unsharded deployment actually sees;
    2. **sharded**: the same stream dumped through the front door,
       whose micro-batching coalesces it into stacked executions
       (phases 1 and 2 alternate over :data:`STEP_ROUNDS` rounds and
       report medians).  The dump's p95 (admission to response) is
       judged against the serve_one stream's sojourn p95 for the same
       simultaneous arrivals: each request queued behind the ones
       before it, as one unsharded engine would serve the dump;
    3. **overload**: open-loop traffic at 2x the baseline's measured
       capacity with a deadline — the front door must keep serving
       (degraded bins allowed, refusals accounted) while the
       simulated unsharded queue blows far past the deadline;
    4. **forced shed**: a deliberately tight p95 budget drives the
       admission controller's shed level up, routing traffic to
       cheaper bins — degraded-but-served, never silently dropped.
    """
    count = len(requests)
    rows = []

    # -- Phases 1 and 2, timed in alternating rounds ------------------
    # 1: one warm engine serving the stream one request at a time;
    # 2: the same stream dumped through a warm sharded front door.
    # One cold pass reads anywhere in a 2x range from run to run, so
    # each phase is timed over STEP_ROUNDS rounds in alternating order
    # and the claims below are gated on the medians.
    rates: dict[str, list[float]] = {"single": [], "sharded": []}
    summaries: dict[str, list[tuple]] = {"single": [], "sharded": []}
    # Per single round: the stream's sojourn p95 had all its requests
    # arrived at once (an infinite arrival rate).
    stream_sojourn_p95s: list[float] = []
    with ServingEngine() as engine, \
            FrontDoor.build("async:2x1", shard_backend="serial",
                            shedding=None) as door:
        door.register("poisson", tuned)
        # warm caches outside the clock
        engine.serve(requests[:2], [tuned] * 2)
        door.serve(requests[:2])

        def single():
            latencies = []
            for request in requests:
                t0 = time.perf_counter()
                engine.serve([request], [tuned])
                latencies.append(time.perf_counter() - t0)
            return latencies

        fusion = {}  # the last sharded round's stacked executions

        def sharded():
            before = door.stats()
            responses = door.serve(requests)
            after = door.stats()
            assert sum(r.ok for r in responses) \
                == after.served - before.served
            fusion.update(
                stacked_calls=after.stacked_calls - before.stacked_calls,
                stacked_requests=after.stacked_requests
                - before.stacked_requests)
            return [r.latency for r in responses]

        phases = [("single", single), ("sharded", sharded)]
        for round_index in range(STEP_ROUNDS):
            for name, phase in (phases if round_index % 2 == 0
                                else phases[::-1]):
                start = time.perf_counter()
                latencies = phase()
                rates[name].append(count / (time.perf_counter() - start))
                summaries[name].append(latency_summary(latencies))
                if name == "single":
                    stream = latencies  # the last round's, for phase 3
                    stream_sojourn_p95s.append(
                        _simulate_overloaded_stream(latencies,
                                                    float("inf")))
        stats = door.stats()
    assert stats.completed == stats.submitted == count * STEP_ROUNDS + 2

    def median_row(name):
        rate, iqr = median_iqr(rates[name])
        p50, p95, p99 = (float(np.median(column))
                         for column in zip(*summaries[name]))
        return {"requests": count, "rounds": STEP_ROUNDS,
                "throughput_rps": round(rate, 2),
                "throughput_rps_iqr": round(iqr, 2),
                "p50_latency_ms": round(p50 * 1e3, 3),
                "p95_latency_ms": round(p95 * 1e3, 3),
                "p99_latency_ms": round(p99 * 1e3, 3),
                "degraded": 0, "rejected": 0, "expired": 0}, rate, p95

    single_row, single_rps, single_p95 = median_row("single")
    sharded_row, sharded_rps, sharded_p95 = median_row("sharded")
    stream_sojourn_p95 = float(np.median(stream_sojourn_p95s))
    single_row["sojourn_p95_ms"] = round(stream_sojourn_p95 * 1e3, 3)
    rows.append({"bench": "frontdoor", "phase": "baseline_serve_one",
                 "shards": 1, **single_row})
    rows.append({"bench": "frontdoor", "phase": "sharded_dump",
                 "shards": stats.shards, **sharded_row, **fusion})

    # The tentpole claim: >= 2x the unsharded stream's requests/sec at
    # an equal-or-better p95 for the same simultaneous arrivals
    # (micro-batching into stacked kernels does the heavy lifting;
    # shards add headroom on multi-core hosts).
    assert sharded_rps >= 2 * single_rps, \
        f"front door median {sharded_rps:.1f} req/s < 2x single-engine " \
        f"median {single_rps:.1f} req/s"
    assert sharded_p95 <= stream_sojourn_p95, \
        f"front door median p95 {sharded_p95:.4f}s worse than the " \
        f"single-engine stream's median sojourn p95 " \
        f"{stream_sojourn_p95:.4f}s for the same simultaneous arrivals"

    # -- Phase 3: open-loop overload at 2x baseline capacity ----------
    offered_rps = 2 * single_rps
    deadline = max(0.3, 4 * single_p95)
    unsharded_p95 = _simulate_overloaded_stream(stream, offered_rps)
    assert unsharded_p95 > deadline, \
        f"overload too gentle: simulated unsharded p95 " \
        f"{unsharded_p95:.2f}s within deadline {deadline:.2f}s"
    with FrontDoor.build("async:2x1", shard_backend="serial",
                         deadline=deadline,
                         shedding=SheddingPolicy(p95_budget=deadline)
                         ) as door:
        door.register("poisson", tuned)
        futures = []
        start = time.perf_counter()
        for index, request in enumerate(requests):
            pause = start + index / offered_rps - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            futures.append(door.submit(request))
        responses = [future.result(60.0) for future in futures]
        elapsed = time.perf_counter() - start
        stats = door.stats()
    assert stats.submitted == count
    assert stats.completed + stats.rejected + stats.expired == count
    served_fraction = stats.completed / count
    refused = [r for r in responses if r.error is not None
               and ("deadline expired" in r.error
                    or "rejected" in r.error)]
    assert len(refused) == stats.rejected + stats.expired
    assert served_fraction >= 0.95, \
        f"front door served {served_fraction:.1%} under 2x overload"
    rows.append({"bench": "frontdoor", "phase": "overload_2x",
                 "shards": stats.shards, "requests": count,
                 "offered_rps": round(offered_rps, 2),
                 "throughput_rps": round(count / elapsed, 2),
                 "served_fraction": round(served_fraction, 4),
                 "p50_latency_ms": round(stats.p50_latency * 1e3, 3),
                 "p95_latency_ms": round(stats.p95_latency * 1e3, 3),
                 "p99_latency_ms": round(stats.p99_latency * 1e3, 3),
                 "deadline_ms": round(deadline * 1e3, 1),
                 "unsharded_sim_p95_ms": round(unsharded_p95 * 1e3, 1),
                 "degraded": stats.degraded, "rejected": stats.rejected,
                 "expired": stats.expired,
                 "shed_level": stats.shed_level})

    # -- Phase 4: force the shed controller with a tight p95 budget ---
    shed_policy = SheddingPolicy(p95_budget=single_p95 / 4)
    with FrontDoor.build("async:2x1", shard_backend="serial",
                         shedding=shed_policy) as door:
        door.register("poisson", tuned)
        # Closed loop: the first completion primes the controller's
        # latency window, every later admission sees p95 over budget.
        responses = [door.submit(request).result(60.0)
                     for request in requests]
        stats = door.stats()
    assert stats.completed == count
    assert stats.degraded > 0, "tight p95 budget never shed accuracy"
    # No deadline and a closed loop: every degraded request was served
    # and says so on its response.
    assert stats.degraded == sum(r.degraded > 0 for r in responses)
    rows.append({"bench": "frontdoor", "phase": "forced_shed",
                 "shards": stats.shards, "requests": count,
                 "p50_latency_ms": round(stats.p50_latency * 1e3, 3),
                 "p95_latency_ms": round(stats.p95_latency * 1e3, 3),
                 "p99_latency_ms": round(stats.p99_latency * 1e3, 3),
                 "degraded": stats.degraded,
                 "degrade_steps": stats.degrade_steps,
                 "shed_level": stats.shed_level,
                 "rejected": stats.rejected, "expired": stats.expired})
    return rows


def test_frontdoor_step_load(benchmark):
    """Step-load the sharded front door against the serve_one stream
    (see :func:`_step_load` for the phases and claims)."""
    tuned = _tuned_via_artifact()
    requests = _mixed_requests()
    rows = run_once(benchmark, lambda: _step_load(tuned, requests))
    print(f"\nFront-door step load ({len(requests)} Poisson requests, "
          f"{os.cpu_count()} cpus):")
    for row in rows:
        rate = row.get("throughput_rps", "-")
        print(f"  {row['phase']:>20} {rate!s:>9} req/s  "
              f"p95 {row['p95_latency_ms']:.2f}ms  "
              f"degraded {row['degraded']} rejected {row['rejected']} "
              f"expired {row['expired']}")
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
