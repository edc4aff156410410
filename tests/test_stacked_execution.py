"""Stacked execution: fused waves are indistinguishable from loops.

Covers the runtime batching layer (:mod:`repro.runtime.batching`), the
ServingEngine's live and shadow wave fusion, and the tuning harness's
population stacking — in every case the observable results must match
the one-request path (a group of one never fuses), with only the
counters revealing that fewer program executions happened.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotuner import ProgramTestHarness
from repro.autotuner.candidate import Candidate
from repro.runtime.backends import SerialBackend, TrialRequest
from repro.runtime.batching import (
    execute_stacked,
    is_batchable,
    run_batch_stacked,
    stack_signature,
)
from repro.runtime.executor import TunedProgram
from repro.serving import FrontDoor, ServeRequest, ServingEngine
from repro.suite import all_benchmarks, get_benchmark

from tests.test_backends import RecordingBackend


@pytest.fixture(scope="module")
def poisson_program():
    program, _ = get_benchmark("poisson").compile()
    return program


def _batchable_benchmarks() -> list[str]:
    return [name for name in sorted(all_benchmarks())
            if is_batchable(get_benchmark(name).compile()[0])]


@pytest.fixture(scope="module", params=_batchable_benchmarks())
def batchable(request):
    """``(spec, program)`` of each suite program that may fuse waves."""
    spec = get_benchmark(request.param)
    program, _ = spec.compile()
    return spec, program


def stack_size(spec) -> float:
    """A mid-range training size: big enough to exercise every rule."""
    return spec.training_sizes[min(2, len(spec.training_sizes) - 1)]


def pin_precision(config, value: str = "float64"):
    """Pin every per-instance ``precision`` entry of ``config``.

    The bit-identity assertions in this module hold exactly for float64
    configurations; float32 runs agree with the per-request path only
    to working precision (the fused einsum substitution rounds
    differently than the scalar loops), so the float32 side is covered
    separately with dtype-aware tolerances in TestPrecisionStacking.
    """
    updates = {key: value for key, _ in config.items()
               if key.endswith(".precision")}
    return config.with_entries(updates)


def poisson_tuned(program, seed: int = 100) -> TunedProgram:
    configs = {}
    for index, target in enumerate(program.root_transform.accuracy_bins):
        rng = np.random.default_rng(seed + index)
        configs[target] = pin_precision(program.random_config(rng))
    return TunedProgram(program, configs)


def poisson_inputs(n: int, seed: int):
    return get_benchmark("poisson").generate(n, np.random.default_rng(seed))


def make_request(program, n: int, seed: int,
                 config=None) -> TrialRequest:
    config = config if config is not None else program.default_config()
    return TrialRequest(
        n=float(n), trial_index=seed,
        seed=seed, config=config, inputs=poisson_inputs(n, seed))


# ----------------------------------------------------------------------
# The batching primitives
# ----------------------------------------------------------------------
class TestBatchingPrimitives:
    def test_poisson_is_batchable(self, poisson_program):
        assert is_batchable(poisson_program)

    def test_signature_groups_by_config_and_shape(self, poisson_program):
        a = make_request(poisson_program, 15, 0)
        b = make_request(poisson_program, 15, 1)
        c = make_request(poisson_program, 7, 2)
        assert stack_signature(a) == stack_signature(b)
        assert stack_signature(a) != stack_signature(c)

    def test_unfusable_inputs_signature_is_none(self, poisson_program):
        request = make_request(poisson_program, 7, 0)
        weird = TrialRequest(
            n=request.n, trial_index=0, seed=0,
            config=request.config,
            inputs={**dict(request.inputs), "note": object()})
        assert stack_signature(weird) is None

    def test_execute_stacked_matches_scalar(self, batchable):
        spec, program = batchable
        n = stack_size(spec)
        requests = [
            TrialRequest(n=n, trial_index=seed, seed=seed,
                         config=program.default_config(),
                         inputs=spec.generate(int(n),
                                              np.random.default_rng(seed)))
            for seed in range(6)]
        fused = execute_stacked(program, requests,
                                cost_limit=spec.cost_limit,
                                collect_outputs=True)
        backend = SerialBackend()
        scalar = backend.run_batch(program, requests,
                                   cost_limit=spec.cost_limit,
                                   collect_outputs=True)
        assert fused is not None
        for fused_outcome, scalar_outcome in zip(fused, scalar):
            assert not fused_outcome.failed
            # Integer-valued cost terms make the /B recovery exact.
            assert fused_outcome.objective == scalar_outcome.objective
            assert fused_outcome.accuracy == \
                pytest.approx(scalar_outcome.accuracy, rel=1e-12)
            for name in program.root_transform.outputs:
                np.testing.assert_allclose(
                    fused_outcome.outputs[name],
                    scalar_outcome.outputs[name], rtol=1e-12, atol=1e-12)

    def test_run_batch_stacked_alignment_with_mixed_shapes(
            self, poisson_program):
        # Interleave two shapes; outcomes must land positionally.
        requests = [make_request(poisson_program, 15 if i % 2 else 7, i)
                    for i in range(8)]
        backend = RecordingBackend()
        counters: dict[str, int] = {}
        outcomes = run_batch_stacked(poisson_program, requests, backend,
                                     cost_limit=5e8, counters=counters)
        assert len(outcomes) == 8 and not backend.requests
        assert counters == {"stacked_calls": 2, "stacked_requests": 8}
        scalar = SerialBackend().run_batch(poisson_program, requests,
                                           cost_limit=5e8)
        for fused_outcome, scalar_outcome in zip(outcomes, scalar):
            assert fused_outcome.objective == scalar_outcome.objective

    def test_small_groups_fall_through_to_dispatch(self, poisson_program):
        requests = [make_request(poisson_program, 7, 0),
                    make_request(poisson_program, 15, 1)]
        backend = RecordingBackend()
        counters: dict[str, int] = {}
        run_batch_stacked(poisson_program, requests, backend,
                          cost_limit=5e8, counters=counters)
        assert [r.trial_index for r in backend.requests] == [0, 1]
        # The residual runs under the caller's own arguments.
        assert backend.calls == [{"cost_limit": 5e8,
                                  "collect_outputs": False}]
        assert counters == {}

    def test_non_batchable_program_never_stacks(self):
        program, _ = get_benchmark("clustering").compile()
        assert not is_batchable(program)


# ----------------------------------------------------------------------
# ServingEngine wave fusion
# ----------------------------------------------------------------------
class TestEngineStacking:
    def serve_wave(self, poisson_program, *, one_at_a_time: bool = False,
                   count: int = 104, verify: bool = False):
        engine = ServingEngine()
        tuned = poisson_tuned(poisson_program)
        requests = [
            ServeRequest(program="poisson",
                         inputs=poisson_inputs(15, seed), n=15.0,
                         accuracy=3.0, verify=verify, seed=seed)
            for seed in range(count)]
        if one_at_a_time:
            responses = [engine.serve([request], [tuned])[0]
                         for request in requests]
        else:
            responses = engine.serve(requests, [tuned] * count)
        return responses, engine.counters()

    def test_104_request_wave_matches_prebatching_path(
            self, poisson_program):
        stacked, stacked_stats = self.serve_wave(poisson_program)
        looped, looped_stats = self.serve_wave(poisson_program,
                                               one_at_a_time=True)
        assert stacked_stats["stacked_calls"] >= 1
        assert stacked_stats["stacked_requests"] == 104
        assert looped_stats["stacked_calls"] == 0
        for fused, scalar in zip(stacked, looped):
            assert fused.ok and scalar.ok
            assert fused.bin_target == scalar.bin_target
            assert fused.fallback == scalar.fallback
            assert fused.escalations == scalar.escalations
            assert fused.achieved_accuracy == \
                pytest.approx(scalar.achieved_accuracy, rel=1e-12)
            np.testing.assert_allclose(fused.outputs["u"],
                                       scalar.outputs["u"],
                                       rtol=1e-12, atol=1e-12)

    def test_escalation_accounting_survives_stacking(
            self, poisson_program):
        stacked, stacked_stats = self.serve_wave(
            poisson_program, count=24, verify=True)
        looped, looped_stats = self.serve_wave(
            poisson_program, one_at_a_time=True, count=24, verify=True)
        assert stacked_stats["executions"] == looped_stats["executions"]
        for count in (lambda r: r.escalations, lambda r: r.fallback,
                      lambda r: not r.ok):
            assert sum(map(count, stacked)) == sum(map(count, looped))
        for fused, scalar in zip(stacked, looped):
            assert fused.ok == scalar.ok
            assert fused.bin_target == scalar.bin_target
            assert fused.escalations == scalar.escalations

    def test_shadow_wave_fuses_like_live_traffic(self, poisson_program):
        """A shadowed wave fuses on the candidate too, and its paired
        accuracies match shadowing one request at a time."""
        requests = [
            ServeRequest(program="poisson",
                         inputs=poisson_inputs(15, seed), n=15.0,
                         accuracy=3.0, seed=seed)
            for seed in range(8)]
        statuses, counters = [], []
        for one_at_a_time in (False, True):
            with FrontDoor([ServingEngine()], shedding=None) as door:
                door.register("poisson", poisson_tuned(poisson_program))
                door.start_shadow(
                    "poisson", poisson_tuned(poisson_program, seed=200),
                    fraction=1.0)
                if one_at_a_time:
                    for request in requests:
                        door.serve([request])
                else:
                    door.serve(requests)
                statuses.append(door.shadow_status("poisson"))
                stats = door.stats()
            counters.append({"stacked_calls": stats.stacked_calls,
                             "stacked_requests": stats.stacked_requests,
                             "shadow_executions": stats.shadow_executions})
        fused, looped = statuses
        # One fused call for the live wave, one for the shadow wave.
        assert counters[0]["stacked_calls"] == 2
        assert counters[0]["stacked_requests"] == 16
        assert counters[1]["stacked_calls"] == 0
        assert counters[0]["shadow_executions"] == \
            counters[1]["shadow_executions"] == 8
        assert fused.failures == looped.failures == 0
        assert fused.samples == looped.samples == 8
        for field in ("primary_accuracies", "candidate_accuracies"):
            assert getattr(fused, field) == pytest.approx(
                getattr(looped, field), rel=1e-12)

    def test_mixed_sizes_unstack_correctly(self, poisson_program):
        sizes = [7, 15, 7, 15, 7, 15, 7, 7]
        requests = [
            ServeRequest(program="poisson",
                         inputs=poisson_inputs(n, seed), n=float(n),
                         accuracy=3.0, seed=seed)
            for seed, n in enumerate(sizes)]
        responses = ServingEngine().serve(
            requests, [poisson_tuned(poisson_program)] * len(sizes))
        for response, n in zip(responses, sizes):
            assert response.ok
            assert response.outputs["u"].shape == (n, n)


# ----------------------------------------------------------------------
# Harness population stacking
# ----------------------------------------------------------------------
class TestHarnessStacking:
    @pytest.fixture
    def fused_calls(self, monkeypatch):
        """Sizes of the fused calls that stood in for scalar runs."""
        from repro.runtime import batching
        calls: list[int] = []
        original = batching.execute_stacked

        def spy(program, requests, **kwargs):
            outcomes = original(program, requests, **kwargs)
            if outcomes is not None:
                calls.append(len(requests))
            return outcomes

        monkeypatch.setattr(batching, "execute_stacked", spy)
        return calls

    def run_population(self, spec, program, *,
                       one_at_a_time: bool = False,
                       precision: str = "float64"):
        harness = ProgramTestHarness(
            program, spec.generate, base_seed=11,
            cost_limit=spec.cost_limit)
        rng = np.random.default_rng(5)
        candidates = [
            Candidate(pin_precision(program.random_config(rng),
                                    precision))
            for _ in range(3)]
        n = stack_size(spec)
        if one_at_a_time:
            for candidate in candidates:
                for _ in range(4):
                    harness.run_trials([(candidate, n)])
        else:
            harness.ensure_trials_batch(
                [(candidate, n, 4) for candidate in candidates])
        return harness, candidates

    @staticmethod
    def assert_same_trials(population, reference, n):
        for candidate, expected in zip(population, reference):
            trials = candidate.results.trials(n)
            expected_trials = expected.results.trials(n)
            assert len(trials) == len(expected_trials) == 4
            for a, b in zip(trials, expected_trials):
                assert a.objective == b.objective
                assert a.failed == b.failed
                if min(a.accuracy, b.accuracy) >= 14.0:
                    # Residual at machine precision: the log10 metric
                    # amplifies ulp-level differences between the
                    # batched einsum solve and the scalar loop; both
                    # values mean "exact to float64".
                    continue
                assert a.accuracy == pytest.approx(b.accuracy, rel=1e-9)

    def test_population_trials_match_unstacked(self, batchable,
                                               fused_calls, monkeypatch):
        from repro.runtime import batching
        spec, program = batchable
        looped_harness, looped_pop = self.run_population(
            spec, program, one_at_a_time=True)
        assert fused_calls == []
        with monkeypatch.context() as patch:
            # No group is ever large enough to fuse: the same batch
            # goes to the backend request by request.
            patch.setattr(batching, "MIN_GROUP_SIZE", 10 ** 9)
            unfused_harness, unfused_pop = self.run_population(
                spec, program)
        assert fused_calls == []
        stacked_harness, stacked_pop = self.run_population(spec, program)
        assert len(fused_calls) >= 1
        assert sum(fused_calls) >= 2
        # The same batch, fused or not, executes the same trials.  A
        # batch cannot replay its own members, while one-at-a-time
        # trials may replay earlier ones from the trial cache: never
        # more executions, and the same recorded trials.
        assert stacked_harness.trials_executed == \
            unfused_harness.trials_executed
        assert looped_harness.trials_executed <= \
            stacked_harness.trials_executed
        n = stack_size(spec)
        self.assert_same_trials(stacked_pop, unfused_pop, n)
        self.assert_same_trials(stacked_pop, looped_pop, n)

    def test_float32_population_objectives_match_exactly(
            self, poisson_program, fused_calls):
        spec = get_benchmark("poisson")
        _, looped_pop = self.run_population(
            spec, poisson_program, one_at_a_time=True,
            precision="float32")
        assert fused_calls == []
        _, stacked_pop = self.run_population(
            spec, poisson_program, precision="float32")
        assert len(fused_calls) >= 1
        for fused, scalar in zip(stacked_pop, looped_pop):
            fused_trials = fused.results.trials(15.0)
            scalar_trials = scalar.results.trials(15.0)
            assert len(fused_trials) == len(scalar_trials) == 4
            for a, b in zip(fused_trials, scalar_trials):
                # cost_scale is an exact power of two and cost terms
                # are integer-valued, so the float32 discount and the
                # stacked /B recovery are both exact — objectives match
                # bit-for-bit even though the arithmetic does not.
                assert a.objective == b.objective
                assert a.failed == b.failed
                if min(a.accuracy, b.accuracy) >= 5.0:
                    # Near float32's ~7-order residual floor the log10
                    # metric amplifies single-ulp differences between
                    # the batched and scalar float32 kernels.
                    continue
                assert a.accuracy == pytest.approx(b.accuracy, abs=0.05)


# ----------------------------------------------------------------------
# Precision-aware stacking
# ----------------------------------------------------------------------
class TestPrecisionStacking:
    def test_mixed_precision_wave_groups_into_separate_stacks(
            self, poisson_program):
        f64 = poisson_program.default_config()
        f32 = pin_precision(f64, "float32")
        requests = [
            make_request(poisson_program, 15, seed,
                         config=f32 if seed % 2 else f64)
            for seed in range(8)]
        signatures = {stack_signature(request, poisson_program)
                      for request in requests}
        assert len(signatures) == 2 and None not in signatures
        counters: dict[str, int] = {}
        outcomes = run_batch_stacked(
            poisson_program, requests, SerialBackend(),
            cost_limit=5e8, collect_outputs=True, counters=counters)
        assert counters == {"stacked_calls": 2, "stacked_requests": 8}
        for outcome, request in zip(outcomes, requests):
            assert not outcome.failed
            expected = np.float32 if request.config is f32 else np.float64
            assert outcome.outputs["u"].dtype == expected

    def test_float32_wave_fuses_into_float32_stack(self, poisson_program):
        config = pin_precision(poisson_program.default_config(), "float32")
        requests = [make_request(poisson_program, 15, seed, config=config)
                    for seed in range(4)]
        signatures = {stack_signature(request, poisson_program)
                      for request in requests}
        assert len(signatures) == 1
        fused = execute_stacked(poisson_program, requests,
                                cost_limit=5e8, collect_outputs=True)
        assert fused is not None
        scalar = SerialBackend().run_batch(
            poisson_program, requests, cost_limit=5e8,
            collect_outputs=True)
        for fused_outcome, scalar_outcome in zip(fused, scalar):
            assert not fused_outcome.failed
            assert fused_outcome.outputs["u"].dtype == np.float32
            assert scalar_outcome.outputs["u"].dtype == np.float32
            # The float32 cost discount and the /B recovery are exact,
            # and so are the outputs.
            assert fused_outcome.objective == scalar_outcome.objective
            assert np.array_equal(fused_outcome.outputs["u"],
                                  scalar_outcome.outputs["u"])

    def test_dtype_preserved_through_per_request_fallback(
            self, poisson_program):
        # One request per precision: both groups fall below the
        # minimum group size, so everything runs through the
        # per-request dispatch — which must still honour the
        # configured dtype.
        f64 = poisson_program.default_config()
        f32 = pin_precision(f64, "float32")
        requests = [make_request(poisson_program, 15, 0, config=f64),
                    make_request(poisson_program, 15, 1, config=f32)]
        backend = RecordingBackend()
        counters: dict[str, int] = {}
        outcomes = run_batch_stacked(
            poisson_program, requests, backend,
            cost_limit=5e8, collect_outputs=True, counters=counters)
        assert [r.trial_index for r in backend.requests] == [0, 1]
        assert counters == {}
        assert outcomes[0].outputs["u"].dtype == np.float64
        assert outcomes[1].outputs["u"].dtype == np.float32
        # Same inputs, same algorithm: the float32 run costs exactly
        # half of the float64 run.
        assert outcomes[1].objective == pytest.approx(
            outcomes[0].objective * 0.5)
