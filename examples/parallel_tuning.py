"""Execution backends and the trial cache, declared as spec strings.

The autotuner spends nearly all its time running trials (Section
5.5.1).  This example tunes the Poisson benchmark three ways and shows
that the choice of execution backend is purely an execution decision —
a `Project` takes the backend as a spec string and an optional
trial-cache path, nothing else changes:

1. `"serial"` (the default) — the reference result;
2. `"process:2"` — same seed, bit-identical frontier, parallel trials;
3. `"serial"` again, against the trial cache written by run 1 — zero
   trials re-executed.

The example asserts both claims: the process frontier equals the
serial one, and the warm run executes no trial.

Run:  python examples/parallel_tuning.py
"""

import tempfile
import time
from pathlib import Path

from repro.api import Project


def tune(backend="serial", cache=None):
    with Project.from_benchmark("poisson", backend=backend, cache=cache,
                                base_seed=5) as project:
        start = time.perf_counter()
        result = project.tune("smoke", seed=13, max_input_size=15)
        elapsed = time.perf_counter() - start
    return project, result, elapsed


def main():
    with tempfile.TemporaryDirectory() as scratch:
        run(Path(scratch) / "poisson_trials.json")


def run(cache_path):
    # Closing the project persists the cache it built from the path.
    serial_project, serial_result, serial_time = tune("serial", cache_path)
    print(f"serial:      {serial_time:6.2f}s, "
          f"{serial_result.trials_run} trials, "
          f"frontier {serial_result.frontier()[:2]} ...")
    assert serial_project.trials_executed > 0, "the cold run ran nothing"

    _, process_result, process_time = tune("process:2")
    identical = process_result.frontier() == serial_result.frontier()
    print(f"process:     {process_time:6.2f}s, "
          f"{process_result.trials_run} trials, "
          f"bit-identical frontier: {identical}")
    assert identical, "the process frontier differs from the serial one"

    warm_project, cached_result, cached_time = tune("serial", cache_path)
    print(f"warm cache:  {cached_time:6.2f}s, "
          f"{cached_result.trials_run} trials recorded, "
          f"{warm_project.trials_executed} executed "
          f"(cache: {warm_project.cache})")
    assert warm_project.trials_executed == 0, \
        "the warm-cache run re-executed trials"
    assert cached_result.frontier() == serial_result.frontier()


if __name__ == "__main__":
    main()
