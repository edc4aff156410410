"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 10 --trace 0

Prints a ``stamp`` line (cpus, Python and numpy versions, source
revision, workload seed), one line per metric with its unit and sample
count, one line per correctness check, and as the last line one JSON
object with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics BENCHMARK.json
names.  ``--trace 1`` runs the workload twice on half the time each,
untraced and then with span wrappers installed, and reports the
per-layer metrics; ``trace.overhead_pct`` compares the two runs, and the
spans are written under ``perfbench/out/``.

The exit status is 0 only when every check passed.  The program is
imported from ``src/`` beside this directory; without it the benchmark
exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

#: The traced timed wall and the main thread's span self times must
#: agree to within this share.
ATTRIBUTION_TOLERANCE = 0.01

# One BLAS thread: the kernels work on small arrays, and a second BLAS
# thread would only compete with the front door's threads for the cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def source_revision() -> str:
    """The git commit in a clone; otherwise a digest of ``src/``."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  timeout=30, check=True)
            return "git:" + done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SOURCE):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def traced_run(workload, seed: int, seconds: float):
    """An untraced reference run, then a traced one on the same seed."""
    from tracer import Tracer, attribution, breakdown, layer_metrics

    reference = workload.run(seed, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run(seed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values, samples = layer_metrics(tracer, len(traced.clocks),
                                    traced.setups, traced.layer)
    values["trace.overhead_pct"] = 100.0 * (
        traced.reference / reference.reference - 1.0)
    samples["trace.overhead_pct"] = (
        f"traced {traced.reference:.6g} vs untraced "
        f"{reference.reference:.6g}")
    wall = sum(clock.elapsed for clock in traced.clocks)
    attributed, worst = attribution(tracer)
    traced.check(
        f"main-thread self times sum to the traced wall time "
        f"(within {ATTRIBUTION_TOLERANCE:.0%})",
        abs(wall - attributed) <= ATTRIBUTION_TOLERANCE * wall,
        f"{attributed:.6f} s of {wall:.6f} s")
    traced.check("no span has negative self time", worst > -1e-6,
                 f"least self time {worst:.3g} s")
    print("layer breakdown of the traced timed regions "
          "(calls, inclusive s, self s):")
    for layer, calls, inclusive, self_time in breakdown(tracer):
        print(f"  {layer:<36} {calls:>9} {inclusive:>11.4f} "
              f"{self_time:>11.4f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.jsonl.gz")
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    traced.checks = ([("untraced: " + name, passed, detail)
                      for name, passed, detail in reference.checks]
                     + traced.checks)
    traced.attempted += reference.attempted
    traced.failed += reference.failed
    traced.notes += reference.notes
    return traced, values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}/repro",
              file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC_FILE):
        print(f"perfbench: {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    # One CPU for the whole process: each vCPU of a shared host switches
    # between speeds on its own, so the speed probe (speed.py) must run
    # on the CPU the work runs on, and the tier's threads then hand off
    # without cross-CPU wake-ups.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    with open(SPEC_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    unrecorded = [fragment for fragment in workload.pinned()
                  if fragment not in why.get(workload.name, "")]
    if unrecorded:
        print(f"perfbench: BENCHMARK.json does not record {unrecorded} "
              f"for {workload.name}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]

    stamp = {"workload": workload.name, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "cpus": os.cpu_count(), "pinned_cpu": cpu,
             "python": platform.python_version(),
             "numpy": numpy.__version__, "source": source_revision()}
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    if args.trace:
        result, values, samples = traced_run(workload, args.seed,
                                             args.seconds)
    else:
        result = workload.run(args.seed, args.seconds)
        values, samples = result.metrics, result.samples

    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name)
        if value is None or not math.isfinite(value):
            result.check(f"metric {name} measured", False, repr(value))
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>16.6f} {unit:<6} {samples[name]}")
    for note in result.notes:
        print("note " + note)
    for name, passed, detail in result.checks:
        print(f"check {'ok    ' if passed else 'FAILED'} {name}: {detail}")
    share = result.failed / result.attempted if result.attempted else 0.0
    print(f"attempted {result.attempted}, failed {result.failed} "
          f"({share:.4%})")
    correct = all(passed for _, passed, _ in result.checks)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
