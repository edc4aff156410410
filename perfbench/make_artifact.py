"""Rebuild the tuned Poisson artifact the serve workloads load.

    python3 perfbench/make_artifact.py

Tunes Poisson at n = 3, 7, 15 with the settings pinned below, writes
``perfbench/artifact/poisson/default.json`` and prints its SHA-256,
which ``workloads.ARTIFACT_SHA256`` pins.  A new artifact moves every
serve number: commit it in a change of its own and measure the
baseline again after it.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api import Project  # noqa: E402
from repro.autotuner import TunerSettings  # noqa: E402

SETTINGS = TunerSettings(
    max_input_size=15.0, min_input_size=3.0, input_sizes=(3.0, 7.0, 15.0),
    rounds_per_size=2, mutation_attempts=8, k_per_bin=2, min_trials=3,
    max_trials=8, objective="cost", seed=13, initial_random=2,
    accuracy_confidence=0.9, require_targets="error",
    guided_max_evaluations=16, guided_factor=2.0, max_tree_levels=4,
    keep_most_accurate=True, copy_parent_results=True,
    include_meta_mutators=True, lognormal_scaling=True,
    use_guided_mutation=True, prefer_root_mutators=True,
    root_mutator_weight=4.0)


def main() -> None:
    with Project.from_benchmark("poisson", base_seed=5) as project:
        tuned = project.tune(SETTINGS)
    artifact = tuned.artifact(
        created_at="perfbench",
        metadata={"purpose": "perfbench serve workloads"})
    path = os.path.join(HERE, "artifact", "poisson", "default.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    artifact.save(path)
    for target, accuracy, cost in tuned.frontier():
        print(f"bin {target:g}: mean accuracy {accuracy:.3f}, "
              f"cost {cost:.6g}")
    with open(path, "rb") as stream:
        print(hashlib.sha256(stream.read()).hexdigest(), path)


if __name__ == "__main__":
    main()
