"""The adaptive-serving control loop: overhead, slices, and swaps.

Three BENCH_JSON lines quantify what closing the tune→serve→observe→
retune loop costs at steady state and at transition points::

    BENCH_JSON {"bench": "adaptive", "metric": "telemetry_overhead", ...}
    BENCH_JSON {"bench": "adaptive", "metric": "retune_slice", ...}
    BENCH_JSON {"bench": "adaptive", "metric": "hot_swap", ...}

* **telemetry_overhead** — what per-response telemetry recording adds
  to the steady-state serve path, which must stay within 5%
  (observability may not tax serving).  The front door books every
  executed batch with one ``record_batch(responses)`` call; the gate
  is component-based —
  the measured per-response ``record_batch`` cost over the measured
  per-request serve cost — because a raw on/off A/B of a multi-second
  serve cannot resolve a sub-percent true difference through machine
  noise; the A/B min-ratio is still reported alongside as a sanity
  check.
* **retune_slice** — latency of one bounded
  ``TuningSession.step(slice)`` on a session seeded from the deployed
  artifact: the unit of background work the controller interleaves
  with traffic.  The slice is a third of the trials an identical
  untimed session runs, so the session always takes several slices.
* **hot_swap** — latency of the atomic artifact swap itself at the
  front door that owns the program registry (the only moment serving
  and retuning touch), plus a correctness check that the swapped door
  really serves the new configuration.

Smoke-sized by default; set ``REPRO_BENCH_FULL=1`` for more repeats.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import FULL, run_once

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.serving import (
    FrontDoor,
    ServeRequest,
    ServingEngine,
    ServingTelemetry,
    TunedArtifact,
)
from repro.suite import get_benchmark

REQUEST_COUNT = 200 if FULL else 40
REPEATS = 7 if FULL else 5
SERVE_N = 7.0
OVERHEAD_LIMIT_PCT = 5.0
TUNE_SETTINGS = TunerSettings(input_sizes=(7.0,), rounds_per_size=1,
                              mutation_attempts=4, min_trials=2,
                              max_trials=4, seed=13, initial_random=1,
                              guided_max_evaluations=6,
                              accuracy_confidence=None)


def _tuned_result():
    spec = get_benchmark("poisson")
    program, _ = spec.compile()
    harness = ProgramTestHarness(program, spec.generate, base_seed=5,
                                 cost_limit=spec.cost_limit)
    result = Autotuner(program, harness, TUNE_SETTINGS).tune()
    return spec, program, harness, result


def _requests(spec, count):
    accuracies = [1.0, 3.0, 5.0, None, 2.0]
    requests = []
    for i in range(count):
        rng = np.random.default_rng(3000 + i)
        requests.append(ServeRequest(
            program="poisson", inputs=spec.generate(int(SERVE_N), rng),
            n=SERVE_N, accuracy=accuracies[i % len(accuracies)],
            seed=i % 3))
    return requests


def _serve_elapsed(tuned, requests, telemetry):
    """Seconds to serve ``requests`` on a warm engine, recording the
    responses in ``telemetry`` (unless None) as the front door does."""
    engine = ServingEngine()
    engine.serve(requests[:2], [tuned] * 2)  # warm caches
    start = time.perf_counter()
    responses = engine.serve(requests, [tuned] * len(requests))
    if telemetry is not None:
        telemetry.record_batch(responses)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in responses)
    return elapsed


def test_adaptive_loop_costs(benchmark):
    spec, program, harness, result = _tuned_result()
    artifact = TunedArtifact.from_json(result.to_artifact().to_json())
    tuned = artifact.to_tuned(program)
    requests = _requests(spec, REQUEST_COUNT)

    def run():
        rows = []

        # 1. Steady-state overhead.  Serve cost and telemetry cost are
        #    measured separately (each min-of-repeats, so load spikes
        #    are filtered) and gated on their ratio; the on/off A/B is
        #    reported as a sanity line but cannot gate — its noise
        #    floor exceeds the true sub-percent difference.
        plain_times, telemetry_times = [], []
        for _ in range(3):
            plain_times.append(
                _serve_elapsed(tuned, requests, telemetry=None))
            telemetry_times.append(
                _serve_elapsed(tuned, requests,
                               telemetry=ServingTelemetry()))
        serve_per_request = min(plain_times) / REQUEST_COUNT

        # Replay exactly what the front door books per executed batch
        # (see FrontDoor._run_batch) — the batch's responses — through
        # record_batch, enough times to time it precisely, window
        # evictions included.
        responses = ServingEngine().serve(requests,
                                          [tuned] * len(requests))
        record_times = []
        for _ in range(REPEATS):
            telemetry = ServingTelemetry()
            start = time.perf_counter()
            for _ in range(50):
                telemetry.record_batch(responses)
            record_times.append((time.perf_counter() - start)
                                / (50 * len(responses)))
        record_per_response = min(record_times)
        overhead_pct = 100.0 * record_per_response / serve_per_request
        rows.append({
            "bench": "adaptive", "metric": "telemetry_overhead",
            "requests": REQUEST_COUNT, "repeats": REPEATS,
            "serve_us_per_request":
                round(serve_per_request * 1e6, 3),
            "record_us_per_response":
                round(record_per_response * 1e6, 4),
            "overhead_pct": round(overhead_pct, 4),
            "ab_min_ratio": round(min(telemetry_times)
                                  / min(plain_times), 4),
            "limit_pct": OVERHEAD_LIMIT_PCT,
        })

        # 2. Retune-slice latency on a session seeded from the
        #    deployed artifact (the controller's unit of work).  An
        #    identical seeded session run untimed sizes the slice: a
        #    third of its trials (sliced runs equal one-shot runs).
        seeds = tuple(tuned.bin_configs.values())
        before = harness.trials_run
        Autotuner(program, harness, TUNE_SETTINGS).session(
            seed_configs=seeds).run()
        session_trials = harness.trials_run - before
        slice_trials = max(1, session_trials // 3)
        session = Autotuner(program, harness, TUNE_SETTINGS).session(
            seed_configs=seeds)
        slice_times = []
        while not session.done:
            start = time.perf_counter()
            session.step(slice_trials)
            slice_times.append(time.perf_counter() - start)
        rows.append({
            "bench": "adaptive", "metric": "retune_slice",
            "slice_trials": slice_trials,
            "slices": len(slice_times),
            "p50_ms": round(float(np.median(slice_times)) * 1e3, 3),
            "max_ms": round(max(slice_times) * 1e3, 3),
            "session_trials": session_trials,
        })

        # 3. Hot-swap latency (and correctness of the swapped door).
        candidate = session.result().tuned_program()
        with FrontDoor([ServingEngine()], shedding=None) as door:
            door.register("poisson", tuned)
            door.serve(requests[:2])
            swap_times = []
            current = tuned
            for _ in range(REPEATS * 2):
                nxt = candidate if current is tuned else tuned
                start = time.perf_counter()
                door.hot_swap("poisson", nxt)
                swap_times.append(time.perf_counter() - start)
                current = nxt
            assert door.program_for("poisson") is current
            assert door.serve([requests[0]])[0].ok
        rows.append({
            "bench": "adaptive", "metric": "hot_swap",
            "swaps": len(swap_times),
            "p50_us": round(float(np.median(swap_times)) * 1e6, 2),
            "max_us": round(max(swap_times) * 1e6, 2),
        })
        return rows

    rows = run_once(benchmark, run)
    harness.close()
    print(f"\nAdaptive-loop costs over {REQUEST_COUNT} Poisson requests "
          f"({os.cpu_count()} cpus):")
    for row in rows:
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
    overhead = next(r for r in rows
                    if r["metric"] == "telemetry_overhead")
    assert overhead["overhead_pct"] < OVERHEAD_LIMIT_PCT, (
        f"telemetry overhead {overhead['overhead_pct']:.2f}% exceeds "
        f"the {OVERHEAD_LIMIT_PCT:.0f}% serve-path budget")
    slices = next(r for r in rows if r["metric"] == "retune_slice")
    assert slices["slices"] > 1  # the session really ran in slices
