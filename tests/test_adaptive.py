"""End-to-end adaptive serving: drift → retune → shadow → swap.

The acceptance scenario of the closed loop.  A ``pickmean`` deployment
is tuned on *calm* traffic (sample variance 0.5); live traffic then
shifts to high variance, so the sampling configuration that earned the
0.99-accuracy guarantee in training no longer delivers it.  The drift
detector must fire, the controller must retune *in bounded background
slices* seeded with the deployed configs, shadow the candidate on
sampled live traffic, promote it, and served accuracy must recover.

The companion test retunes against *stale* (ultra-calm) training data:
the candidate looks great in training, regresses in shadow, and must
be rolled back — with the store's latest pointer and the served
program untouched.

The controller drives a front door, so the promotion scenario also
runs behind two shards: one telemetry sees both shards' traffic, and
the promotion swaps once for the whole tier.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import compile_program
from repro.runtime.backends import ProcessPoolBackend
from repro.runtime.executor import TunedProgram
from repro.serving import (
    ArtifactStore,
    FrontDoor,
    RetuneController,
    ServeRequest,
    ServingTelemetry,
)

from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable

SERVE_N = 64.0
TARGET = 0.99          # the bin whose guarantee the shift breaks
CALM_SIGMA = 0.5
SHIFT_SIGMA = 6.0
STALE_SIGMA = 0.01     # "retrained on stale data" for the rollback test


# ----------------------------------------------------------------------
# A mean estimator whose calm-traffic optimum is *sampling*: the exact
# scan is 20x the cost of the whole input, so training on calm data
# deploys a subsample size with just enough margin for 0.99 — the
# configuration a variance shift can break.  The scan stays available
# as the (expensive) recovery the retuner must rediscover.
# ----------------------------------------------------------------------
def _adapt_metric(outputs, inputs):
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


def make_adaptmean_transform() -> Transform:
    transform = Transform(
        "adaptmean", inputs=("xs",), outputs=("est",),
        accuracy_metric=_adapt_metric,
        accuracy_bins=(0.5, 0.9, 0.99),
        tunables=[accuracy_variable("m", lo=1, hi=100000, default=4,
                                    direction=+1)])
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="subsample")(_subsample)
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="full_scan")(_full_scan)
    return transform

TUNE = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=2,
                     mutation_attempts=6, min_trials=3, max_trials=5,
                     seed=7, initial_random=1,
                     guided_max_evaluations=12,
                     accuracy_confidence=0.9)
RETUNE = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=2,
                       mutation_attempts=8, min_trials=3, max_trials=5,
                       seed=21, initial_random=1,
                       guided_max_evaluations=12,
                       accuracy_confidence=None)


def make_generator(sigma):
    def generate(n, rng):
        return {"xs": rng.normal(10.0, sigma, size=max(2, int(n)))}
    return generate


def make_requests(sigma: float, count: int, *, first_seed: int = 0
                  ) -> list[ServeRequest]:
    requests = []
    for i in range(count):
        rng = np.random.default_rng(10_000 + first_seed + i)
        requests.append(ServeRequest(
            program="adaptmean",
            inputs=make_generator(sigma)(int(SERVE_N), rng),
            n=SERVE_N, accuracy=TARGET, seed=first_seed + i))
    return requests


def build_world(tmp_path, retune_sigma: float, *, backend=None,
                shards: int = 1):
    """Tune on calm traffic, deploy, and wire the adaptive stack behind
    a front door of ``shards`` serial shards (or one on ``backend``)."""
    program, _ = compile_program(make_adaptmean_transform())
    with ProgramTestHarness(program, make_generator(CALM_SIGMA),
                            base_seed=3) as harness:
        result = Autotuner(program, harness, TUNE).tune()
    assert result.unmet_bins == ()
    # Guarantees at the same confidence the tuner enforced, so the
    # deployed artifact really does promise 0.99.
    guarantees = result.bin_guarantees(confidence=0.9)
    assert guarantees[TARGET].holds

    store = ArtifactStore(tmp_path / "artifacts")
    store.save(result.to_artifact(confidence=0.9))
    telemetry = ServingTelemetry(window=64)
    door = FrontDoor.build(
        f"async:{shards}x1", store=store, telemetry=telemetry,
        shard_backend=backend if backend is not None else "serial")
    door.register("adaptmean",
                  store.load_tuned("adaptmean", compiled=program))

    def harness_factory(name, compiled):
        return ProgramTestHarness(compiled,
                                  make_generator(retune_sigma),
                                  base_seed=11)

    controller = RetuneController(
        door, store, harness_factory=harness_factory,
        settings=RETUNE, slice_trials=40, shadow_fraction=1.0,
        min_shadow_samples=6, min_drift_samples=12,
        drift_confidence=0.9)
    return program, store, telemetry, door, controller


def drive_retune_to_shadow(controller, max_polls: int = 200) -> int:
    """Poll until the in-flight retune reaches its shadow phase."""
    for polls in range(1, max_polls + 1):
        controller.poll()
        status = controller.status()
        if status and all(s.phase == "shadow"
                          for s in status.values()):
            return polls
    raise AssertionError(
        f"retune never reached shadow; status={controller.status()} "
        f"events={controller.events}")


class TestAdaptiveLoop:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_drift_retune_shadow_promote_recovers(self, tmp_path,
                                                  shards):
        program, store, telemetry, door, controller = \
            build_world(tmp_path, retune_sigma=SHIFT_SIGMA,
                        shards=shards)
        baseline = door.program_for("adaptmean")

        # Calm traffic: guarantees hold, nothing to do.
        door.serve(make_requests(CALM_SIGMA, 16))
        assert telemetry.snapshot("adaptmean", TARGET).samples == 16
        assert controller.poll() == []
        assert controller.status() == {}

        # The workload shifts: observed accuracy erodes below 0.99.
        door.serve(make_requests(SHIFT_SIGMA, 24, first_seed=100))
        drifted = telemetry.snapshot("adaptmean", TARGET)
        assert drifted.mean_accuracy < TARGET

        # Drift fires and a seeded background retune opens.
        actions = controller.poll()
        assert any("drift" in action for action in actions)
        status = controller.status()["adaptmean"]
        assert status.phase == "tuning"
        assert TARGET in status.drifted_bins

        # Bounded slices: the session takes several polls, not one.
        polls = drive_retune_to_shadow(controller)
        assert polls >= 2
        status = controller.status()["adaptmean"]
        assert status.candidate_version == 2  # v1 deployed, v2 candidate
        assert store.latest_version("adaptmean") == 1  # not served yet

        # Shadow evaluation on sampled live traffic, then promotion.
        door.serve(make_requests(SHIFT_SIGMA, 12, first_seed=200))
        shadow = door.shadow_status("adaptmean")
        assert shadow is not None and shadow.samples >= 6
        actions = controller.poll()
        assert any("promoted" in action for action in actions)
        assert controller.status() == {}
        assert store.latest_version("adaptmean") == 2
        assert door.stats().swaps == 1
        assert door.program_for("adaptmean") is not baseline
        assert door.shadow_status("adaptmean") is None

        # Served accuracy recovers on the shifted workload.
        responses = door.serve(
            make_requests(SHIFT_SIGMA, 16, first_seed=300))
        assert all(r.ok for r in responses)
        recovered = telemetry.snapshot("adaptmean", TARGET)
        assert recovered.samples == 16  # hot_swap reset the window
        assert recovered.mean_accuracy >= TARGET
        # And the detector agrees the new artifact holds.
        assert controller.check_drift() == {}
        door.close()

    def test_regressing_candidate_rolled_back(self, tmp_path):
        program, store, telemetry, door, controller = \
            build_world(tmp_path, retune_sigma=STALE_SIGMA)
        baseline = door.program_for("adaptmean")

        # Same drift as above...
        door.serve(make_requests(SHIFT_SIGMA, 24, first_seed=100))
        actions = controller.poll()
        assert any("drift" in action for action in actions)
        drive_retune_to_shadow(controller)

        # ...but the retune trained on stale ultra-calm data: its tiny
        # sampling config collapses on real (shifted) traffic.
        door.serve(make_requests(SHIFT_SIGMA, 12, first_seed=200))
        shadow = door.shadow_status("adaptmean")
        assert shadow is not None and shadow.samples >= 6
        primary = [a for p, _ in shadow.per_bin.values() for a in p]
        candidate = [a for _, c in shadow.per_bin.values() for a in c]
        assert len(primary) == len(candidate) == shadow.samples
        candidate_mean = sum(candidate) / len(candidate)
        primary_mean = sum(primary) / len(primary)
        assert candidate_mean < primary_mean  # a genuine regression

        actions = controller.poll()
        assert any("rolled back" in action for action in actions)
        # Nothing was served from the bad candidate: pointer, program
        # and swap count are untouched; history keeps the candidate.
        assert store.latest_version("adaptmean") == 1
        assert store.versions("adaptmean") == [1, 2]
        assert door.program_for("adaptmean") is baseline
        assert door.stats().swaps == 0
        assert door.shadow_status("adaptmean") is None
        # The program is suspended until an operator clears it.
        assert controller.suspended == ("adaptmean",)
        assert controller.poll() == []
        controller.clear("adaptmean")
        assert controller.suspended == ()
        assert telemetry.snapshot("adaptmean", TARGET).samples == 0
        door.close()

    @pytest.mark.parametrize("corruption", ["out_of_space", "unreadable"])
    def test_corrupt_candidate_version_never_swapped_in(self, tmp_path,
                                                        corruption):
        """A stored candidate version that cannot attach (a value
        outside its parameter's domain, or a file that does not parse)
        fails the promotion before the latest pointer or the served
        program moves."""
        program, store, telemetry, door, controller = \
            build_world(tmp_path, retune_sigma=SHIFT_SIGMA)
        baseline = door.program_for("adaptmean")
        door.serve(make_requests(SHIFT_SIGMA, 24, first_seed=100))
        controller.poll()
        drive_retune_to_shadow(controller)
        path = store._version_path("adaptmean", "default", 2)
        if corruption == "out_of_space":
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            for entry in payload["bins"].values():
                tree = entry["config"]["adaptmean@main.m"]
                tree["leaves"] = [10 ** 9] * len(tree["leaves"])
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{not json")
        door.serve(make_requests(SHIFT_SIGMA, 12, first_seed=200))

        actions = controller.poll()
        assert any("ArtifactError" in action for action in actions)
        assert door.program_for("adaptmean") is baseline
        assert door.stats().swaps == 0
        assert store.latest_version("adaptmean") == 1
        assert controller.suspended == ("adaptmean",)
        responses = door.serve(
            make_requests(SHIFT_SIGMA, 4, first_seed=300))
        assert all(r.ok for r in responses)
        door.close()

    def test_crashing_shadow_candidate_rolled_back(self, tmp_path):
        """A candidate that raises in shadow fails only the shadow: live
        traffic stays ok, and the next poll rolls the candidate back."""
        program, store, telemetry, door, controller = \
            build_world(tmp_path, retune_sigma=SHIFT_SIGMA)
        baseline = door.program_for("adaptmean")
        door.serve(make_requests(SHIFT_SIGMA, 24, first_seed=100))
        controller.poll()
        drive_retune_to_shadow(controller)

        # The shadowed build is broken: every execution raises.
        crashing, _ = compile_program(make_adaptmean_transform())

        def execute(*args, **kwargs):
            raise RuntimeError("candidate bug")

        crashing.execute = execute
        door.start_shadow("adaptmean", TunedProgram(crashing, {
            target: crashing.default_config()
            for target in crashing.root_transform.accuracy_bins}),
            fraction=1.0)
        responses = door.serve(
            make_requests(SHIFT_SIGMA, 4, first_seed=200))
        assert all(r.ok for r in responses)
        assert door.shadow_status("adaptmean").failures == 4

        actions = controller.poll()
        assert any("rolled back" in action and "crashed 4" in action
                   for action in actions)
        assert door.shadow_status("adaptmean") is None
        assert door.program_for("adaptmean") is baseline
        assert door.stats().swaps == 0
        assert store.latest_version("adaptmean") == 1
        assert controller.suspended == ("adaptmean",)
        door.close()

    def test_background_thread_promotes(self, tmp_path):
        """The same loop, driven by the controller's own thread, with
        the front door's shard on a process-pool backend."""
        import time

        program, store, telemetry, door, controller = build_world(
            tmp_path, retune_sigma=SHIFT_SIGMA,
            backend=ProcessPoolBackend(max_workers=2))
        door.serve(make_requests(SHIFT_SIGMA, 24, first_seed=100))
        controller.start(interval=0.01)
        try:
            deadline = time.time() + 60.0
            promoted = False
            seed = 500
            while time.time() < deadline and not promoted:
                door.serve(make_requests(SHIFT_SIGMA, 8,
                                           first_seed=seed))
                seed += 8
                promoted = any("promoted" in event
                               for event in controller.events)
        finally:
            controller.stop()
            door.close()
        assert promoted, f"events={controller.events}"
        assert store.latest_version("adaptmean") == 2
