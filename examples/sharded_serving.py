"""Overload a sharded front door and watch it degrade, not drop.

A variable-accuracy service has an option ordinary services lack:
because the policy layer knows each accuracy bin's cost and
statistical guarantee, overload can be absorbed by *shedding accuracy
instead of requests*.  This example walks that story on the Poisson
benchmark:

1. tune and deploy once (the `"smoke"` preset), exactly as in
   `serve_tuned.py`;
2. stand up a `Service` whose policy names an `"async:2x1"` backend —
   a `FrontDoor` of two engine shards with bounded queues, a
   per-request deadline, and shedding watermarks — and serve a calm
   stream: every response arrives at its nominal bin, `degraded == 0`,
   and the tier measures its own p50 latency;
3. overload the tier with a p95 budget of half that measured p50, so
   it sheds on any host: the admission controller's shed level
   climbs, new traffic is routed to cheaper bins (never below a
   request's `floor`), and every degraded response says so —
   `service.stats()` totals what the tier did, and
   `submitted == completed + rejected + expired` holds.

Run:  python examples/sharded_serving.py
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


def requests_for(service, count: int, *, verify_every: int = 4):
    spec = get_benchmark("poisson")
    accuracies = [1.0, 3.0, None, 5.0]
    rng = np.random.default_rng(7)
    return [service.request(spec.generate(15, rng), 15.0,
                            accuracy=accuracies[i % len(accuracies)],
                            verify=(i % verify_every == 0), seed=i)
            for i in range(count)]


def calm_traffic(root: str) -> float:
    """Serve a calm stream; return its measured p50 latency."""
    policy = ServicePolicy(backend="async:2x1", shard_backend="serial",
                           deadline=5.0)
    with Service.load(root, program="poisson", policy=policy) as service:
        responses = [service.serve_one(request)
                     for request in requests_for(service, 12)]
        assert all(r.degraded == 0 for r in responses)
        stats = service.stats()
        print(f"\ncalm: {stats}")
        print(f"  all {stats.completed} at nominal bins "
              f"(shed level {stats.shed_level})")
    return stats.p50_latency


def overloaded_traffic(root: str, calm_p50: float) -> None:
    # A p95 budget below what this host just measured stands in for
    # real queue pressure: as soon as observed latency crosses it, the
    # admission controller starts routing traffic to cheaper bins.
    policy = ServicePolicy(backend="async:2x1", shard_backend="serial",
                           deadline=calm_p50 / 2, queue_limit=64)
    with Service.load(root, program="poisson", policy=policy) as service:
        responses = [service.serve_one(request)
                     for request in requests_for(service, 12)]
        for response in responses:
            note = (f"degraded {response.degraded} bin(s)"
                    if response.degraded else "nominal")
            label = ("-" if response.bin_target is None
                     else f"{response.bin_target:g}")
            state = "ok" if response.ok else \
                ("refused" if response.outputs is None else "failed")
            print(f"  bin {label:>4} {state:>8}  {note}")
        stats = service.stats()
        print(f"overloaded (budget {calm_p50 / 2 * 1e3:.2f}ms): {stats}")
        print(f"  {stats.degraded} degraded ({stats.degrade_steps} bin "
              f"steps), {stats.rejected} rejected, "
              f"{stats.expired} expired")
        assert stats.completed + stats.rejected + stats.expired \
            == stats.submitted
        assert stats.degraded > 0, "the tight budget never shed"
        degraded = sum(1 for r in responses if r.degraded)
        print(f"  {degraded} of {len(responses)} requests served "
              f"cheaper instead of dropped")


def main():
    with tempfile.TemporaryDirectory() as root:
        tune_and_deploy(root)
        overloaded_traffic(root, calm_traffic(root))


if __name__ == "__main__":
    main()
