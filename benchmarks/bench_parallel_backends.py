"""Trial-execution backend throughput on the Poisson suite.

Two measurements, both against the paper's observation that "the
dominant time requirement of our autotuner is testing candidate
algorithms" (Section 5.5.1):

1. raw backend throughput — one population-sized batch of Poisson
   trials through the serial and process backends (plus a
   warm-cache replay), reporting trials/sec and speedup over serial;
2. tuner wall-clock — a full (scaled-down) autotuning run per backend,
   reporting wall-clock, trials/sec and the bit-identical frontier.

Parallel speedups require parallel hardware: the process-backend
throughput assertion is gated on ``os.cpu_count() >= 2`` so a 1-core
CI box measures and records honestly instead of failing on physics.
The warm-cache row demonstrates a >1 trials/sec gain on any machine —
result reuse needs no cores.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.autotuner.candidate import Candidate
from repro.rng import generator_for
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    TrialCache,
)
from repro.suite import get_benchmark

MULTICORE = (os.cpu_count() or 1) >= 2
WORKERS = max(2, min(4, os.cpu_count() or 1))
BATCH_N = 31.0
TRIALS_PER_CANDIDATE = 4
POPULATION = 16
TUNE_SIZES = (7.0, 15.0, 31.0)


def _poisson_harness(backend=None, cache=None):
    spec = get_benchmark("poisson")
    program, _ = spec.compile()
    harness = ProgramTestHarness(program, spec.generate, base_seed=5,
                                 cost_limit=spec.cost_limit,
                                 backend=backend, cache=cache)
    return spec, program, harness


def _batch_requests(program, harness):
    rng = generator_for(17, "bench-parallel", "configs")
    candidates = [Candidate(program.random_config(rng))
                  for _ in range(POPULATION)]
    return [harness.build_request(candidate, BATCH_N, index)
            for candidate in candidates
            for index in range(TRIALS_PER_CANDIDATE)]


def test_backend_batch_throughput(benchmark):
    spec, program, harness = _poisson_harness()
    requests = _batch_requests(program, harness)
    backends = [SerialBackend(), ProcessPoolBackend(max_workers=WORKERS)]

    def run():
        rows = {}
        reference = None
        for backend in backends:
            backend.run_batch(program, requests[:2],
                              cost_limit=spec.cost_limit)  # warm pools
            start = time.perf_counter()
            outcomes = backend.run_batch(program, requests,
                                         cost_limit=spec.cost_limit)
            elapsed = time.perf_counter() - start
            backend.close()
            key = [(o.objective, o.accuracy, o.failed) for o in outcomes]
            if reference is None:
                reference = key
            assert key == reference, f"{backend.name} diverged from serial"
            rows[backend.name] = len(requests) / elapsed
        # Warm-cache replay: fill the TrialCache with one cold pass,
        # then measure the all-hits replay.
        _, _, cached_harness = _poisson_harness(cache=TrialCache())
        cached_harness.run_requests(requests)
        executed_cold = cached_harness.trials_executed
        start = time.perf_counter()
        cached = cached_harness.run_requests(requests)
        elapsed = time.perf_counter() - start
        assert [(o.objective, o.accuracy, o.failed) for o in cached] == \
            reference
        assert cached_harness.trials_executed == executed_cold  # all hits
        rows["cached"] = len(requests) / elapsed
        return rows

    rows = run_once(benchmark, run)
    serial_tps = rows["serial"]
    print(f"\nbatch of {POPULATION * TRIALS_PER_CANDIDATE} Poisson "
          f"trials at n={BATCH_N:g} ({os.cpu_count()} cpus):")
    for name, tps in rows.items():
        print(f"  {name:>8}: {tps:8.1f} trials/s  "
              f"(speedup x{tps / serial_tps:.2f})")
    # Result reuse beats re-execution on any hardware.
    assert rows["cached"] - serial_tps > 1.0
    if MULTICORE:
        # With real cores, process-parallel execution must out-run
        # serial by more than one trial per second.
        assert rows["process"] - serial_tps > 1.0


def test_tuner_wall_clock_per_backend(benchmark):
    settings = TunerSettings(input_sizes=TUNE_SIZES, rounds_per_size=1,
                             mutation_attempts=6, min_trials=2,
                             max_trials=4, seed=13, initial_random=2,
                             guided_max_evaluations=8,
                             accuracy_confidence=None)
    backends = {
        "serial": lambda: SerialBackend(),
        "process": lambda: ProcessPoolBackend(max_workers=WORKERS),
    }

    def run():
        rows = {}
        frontiers = {}
        for name, factory in backends.items():
            _, program, harness = _poisson_harness(backend=factory())
            with harness:
                start = time.perf_counter()
                result = Autotuner(program, harness, settings).tune()
                elapsed = time.perf_counter() - start
            rows[name] = (elapsed, result.trials_run / elapsed)
            frontiers[name] = result.frontier()
        assert frontiers["process"] == frontiers["serial"]
        return rows

    rows = run_once(benchmark, run)
    serial_wall, _ = rows["serial"]
    print(f"\nPoisson autotuning (sizes {TUNE_SIZES}, "
          f"{os.cpu_count()} cpus):")
    for name, (wall, tps) in rows.items():
        print(f"  {name:>8}: {wall:6.2f}s wall  {tps:7.1f} trials/s  "
              f"(speedup x{serial_wall / wall:.2f})")
