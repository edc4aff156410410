"""The closed loop on `repro.api`: tune → serve → observe → adapt.

Training-time accuracy guarantees are statistical (paper, Section
3.3): they hold for the distribution the tuner trained on.  This
example tunes a mean estimator on calm data (variance 0.5), deploys
it, then shifts live traffic to variance 6 — silently breaking the
0.99 bin's guarantee — and lets the service recover: `poll()` detects
the drift, runs bounded background retune slices against *shifted*
training inputs, shadows the candidate on sampled live traffic, and
promotes it (store version pointer + atomic hot swap at the front
door).  The service runs two serial shards (`async:2x1`): the front
door holds the one program registry and every shadow, so the adaptive
loop is the same at any shard count.  The
whole adaptive loop is declared by one `ServicePolicy`; the transform
is built by a module-level factory, so the service reloads the
program from the stored artifact's `("factory", ...)` provenance
without being handed compiled code.

Run:  python examples/adaptive_serving.py
"""

import tempfile

import numpy as np

from repro.api import Project, Service, ServicePolicy
from repro.autotuner import TunerSettings
from repro.lang import accuracy_metric, accuracy_variable, rule, transform
from repro.lang.transform import Transform

CALM_SIGMA, SHIFT_SIGMA = 0.5, 6.0
TARGET = 0.99
SERVE_N = 64.0
TUNE = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=2,
                     mutation_attempts=6, min_trials=3, max_trials=5,
                     seed=7, initial_random=1,
                     guided_max_evaluations=12, accuracy_confidence=0.9)
RETUNE = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=2,
                       mutation_attempts=8, min_trials=3, max_trials=5,
                       seed=21, initial_random=1,
                       guided_max_evaluations=12,
                       accuracy_confidence=None)
POLICY = ServicePolicy(backend="async:2x1", shard_backend="serial",
                       retune=RETUNE, slice_trials=40,
                       shadow_fraction=1.0, min_shadow_samples=6,
                       min_drift_samples=12, drift_confidence=0.9,
                       telemetry_window=64)


def _metric(outputs, inputs):
    estimate = float(outputs["est"])
    truth = float(np.mean(inputs["xs"]))
    return max(0.0, 1.0 - abs(estimate - truth) / (abs(truth) + 1e-9))


def _subsample(ctx, xs):
    m = min(len(xs), int(ctx.param("m")))
    indices = ctx.rng.integers(0, len(xs), size=m)
    ctx.add_cost(m)
    return float(np.mean(xs[indices]))


def _full_scan(ctx, xs):
    ctx.add_cost(20 * len(xs))
    return float(np.mean(xs))


def make_transform() -> Transform:
    # The DSL also lowers declarations over pre-existing module-level
    # functions: the attribute names name the rules, the signatures
    # name the inputs.
    @transform(inputs=("xs",), outputs=("est",),
               accuracy_bins=(0.5, 0.9, TARGET))
    class adaptmean:
        m = accuracy_variable(lo=1, hi=100000, default=4, direction=+1)
        metric = accuracy_metric(_metric)
        subsample = rule(_subsample)
        full_scan = rule(_full_scan)

    return adaptmean


def generator(sigma):
    def generate(n, rng):
        return {"xs": rng.normal(10.0, sigma, size=max(2, int(n)))}
    return generate


def requests_at(service, sigma, count, first_seed):
    make = generator(sigma)
    return [service.request(
        make(int(SERVE_N), np.random.default_rng(9000 + s)),
        SERVE_N, accuracy=TARGET, seed=s)
        for s in range(first_seed, first_seed + count)]


def report(service, label):
    snap = service.snapshot(TARGET)
    mean = ("n/a" if snap.mean_accuracy is None
            else f"{snap.mean_accuracy:.4f}")
    print(f"  [{label}] bin {TARGET:g}: mean observed accuracy {mean} "
          f"over {snap.samples} requests")


def main():
    with tempfile.TemporaryDirectory() as root:
        # 1. Tune on calm traffic and deploy (artifact v1).
        with Project.from_transform(make_transform,
                                    generator(CALM_SIGMA),
                                    base_seed=3) as project:
            tuned = project.tune(TUNE)
            deployment = tuned.deploy(root, confidence=0.9, retain=8)
        print(f"tuned on calm data ({tuned.trials_run} trials); "
              f"deployed v{deployment.version}")
        print(f"  0.99-bin guarantee: "
              f"{tuned.bin_guarantees(confidence=0.9)[TARGET]}")

        # The service retunes against *shifted* training inputs — the
        # operator's statement of what current traffic looks like.
        with Service.load(deployment.store, program="adaptmean",
                          policy=POLICY,
                          training_inputs=generator(SHIFT_SIGMA),
                          log=lambda m: print(f"  [ctl] {m}")) as service:
            # 2. Calm traffic: the guarantee holds.
            service.serve(requests_at(service, CALM_SIGMA, 16, 0))
            report(service, "calm")
            assert service.poll() == []

            # 3. The workload shifts; observed accuracy erodes.
            service.serve(requests_at(service, SHIFT_SIGMA, 24, 100))
            report(service, "shifted")

            # 4. Drift fires; bounded background retune slices run.
            service.poll()
            while any(s.phase == "tuning"
                      for s in service.adaptive_status().values()):
                service.poll()

            # 5. Shadow on live traffic, then promotion + hot swap.
            service.serve(requests_at(service, SHIFT_SIGMA, 12, 200))
            shadow = service.frontdoor.shadow_status("adaptmean")
            print(f"  shadow sampled {shadow.samples} live requests")
            service.poll()
            store = deployment.store
            print(f"store now: versions "
                  f"{store.versions('adaptmean')}, serving "
                  f"v{store.latest_version('adaptmean')}; "
                  f"swaps: {service.stats().swaps}")

            # 6. Served accuracy recovers on the shifted workload.
            service.serve(requests_at(service, SHIFT_SIGMA, 16, 300))
            report(service, "recovered")
            assert service.check_drift() == {}
            print("guarantee restored; audit trail:")
            for line in service.events:
                print(f"    - {line}")


if __name__ == "__main__":
    main()
