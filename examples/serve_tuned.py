"""Tune once, serve many — the deploy → serve half of `repro.api`.

The deployable product of autotuning is not the tuner but the tuned
program (paper, Sections 3.2-3.3).  This example walks the production
loop on the Poisson benchmark:

1. a `Project` over the benchmark tunes with the `"smoke"` preset and
   `deploy()`s the result — a versioned `TunedArtifact` carrying
   per-bin configurations and statistical accuracy guarantees — into
   an `ArtifactStore` on disk;
2. in the role of a fresh serving process, `Service.load` rebuilds the
   program from the artifact's recorded provenance (no re-tuning, no
   access to the tuner) and serves a mixed-accuracy batch on the
   serial backend declared by a `ServicePolicy` spec string;
3. each response reports its bin choice, achieved accuracy, guarantee,
   and the engine's latency/escalation/fallback counters.

Run:  python examples/serve_tuned.py
"""

import tempfile

import numpy as np

from repro.api import Project, Service, ServicePolicy
from repro.suite import get_benchmark


def tune_and_deploy(root: str) -> None:
    with Project.from_benchmark("poisson") as project:
        tuned = project.tune("smoke", seed=13, max_input_size=15)
        deployment = tuned.deploy(root, created_at="example-run")
    print(f"tuned {tuned.trials_run} trials -> {deployment.path}")
    for entry in tuned.artifact().bins:
        print(f"  bin {entry.target:g}: {entry.guarantee}")


def serve_from_store(root: str) -> None:
    # A fresh process would do exactly this: no tuner, no re-training —
    # the service loads the artifact lazily and rebuilds the compiled
    # program from its recorded provenance.
    spec = get_benchmark("poisson")
    rng = np.random.default_rng(42)
    policy = ServicePolicy(backend="serial", batch_size=4)
    with Service.load(root, program="poisson", policy=policy) as service:
        requests = [
            service.request(spec.generate(15, rng), 15.0,
                            accuracy=accuracy, verify=verify, seed=i)
            for i, (accuracy, verify) in enumerate(
                [(0.5, False), (3.0, False), (7.0, True), (None, False),
                 (9.99, False),  # beyond every bin: explicit fallback
                 (1.0, True), (5.0, False), (3.0, True)])
        ]
        responses = service.serve(requests)
        for request, response in zip(requests, responses):
            wants = ("best" if request.accuracy is None
                     else f"{request.accuracy:g}")
            flags = "".join([" FALLBACK" if response.fallback else "",
                             f" +{response.escalations} escalation(s)"
                             if response.escalations else "",
                             "" if response.ok else " VERIFY-FAILED"])
            print(f"  want {wants:>5} -> bin {response.bin_target:g} "
                  f"achieved {response.achieved_accuracy:.3g} "
                  f"({response.latency * 1e3:.2f}ms){flags}")
        print(service.stats())


def main():
    with tempfile.TemporaryDirectory() as root:
        tune_and_deploy(root)
        serve_from_store(root)


if __name__ == "__main__":
    main()
