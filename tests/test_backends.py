"""Execution backends: equivalence, determinism, caching, picklability.

The backend contract (repro.runtime.backends.base) promises that
serial and process-pool execution produce bit-identical
tuning results under the deterministic cost objective.  These tests
hold every backend to it, and cover the TrialCache and the harness's
bounded input cache.

The module-level transform below is what lets ProcessPoolBackend
pickle the ad-hoc program: its rule and metric functions resolve by
qualified name.  Suite programs instead pickle by provenance, covered
in TestProgramPickling.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.autotuner.candidate import Candidate
from repro.compiler.compile import compile_program
from repro.config.configuration import Configuration
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ConfigError
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    TrialCache,
    TrialOutcome,
    backend_from_spec,
    config_digest,
    execute_trial,
)
from repro.runtime.batching import execute_stacked, run_batch_stacked
from repro.suite import get_benchmark

# ----------------------------------------------------------------------
# A picklable variable-accuracy transform (module-level functions only).
# ----------------------------------------------------------------------


def _pickmean_metric(outputs, inputs):
    estimate = float(outputs["est"])
    truth = float(np.mean(inputs["xs"]))
    return max(0.0, 1.0 - abs(estimate - truth) / (abs(truth) + 1e-9))


def make_pickmean_transform() -> Transform:
    transform = Transform(
        "pickmean",
        inputs=("xs",),
        outputs=("est",),
        accuracy_metric=_pickmean_metric,
        accuracy_bins=(0.5, 0.9, 0.99),
        tunables=[accuracy_variable("m", lo=1, hi=100000, default=4,
                                    direction=+1)],
    )
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="sample_mean")(_sample_mean)
    transform.rule(outputs=("est",), inputs=("xs",),
                   name="exact_mean")(_exact_mean)
    return transform


def _sample_mean(ctx, xs):
    m = min(len(xs), int(ctx.param("m")))
    indices = ctx.rng.integers(0, len(xs), size=m)
    ctx.add_cost(m)
    return float(np.mean(xs[indices]))


def _exact_mean(ctx, xs):
    ctx.add_cost(2 * len(xs))
    return float(np.mean(xs))


def pickmean_inputs(n, rng):
    return {"xs": rng.normal(10.0, 1.0, size=max(2, int(n)))}


class RecordingBackend(SerialBackend):
    """A serial backend that records what reaches ``run_batch``: every
    request, and the keyword arguments of every call."""

    def __init__(self):
        self.requests: list = []
        self.calls: list[dict] = []

    def run_batch(self, program, requests, **kwargs):
        self.requests.extend(requests)
        self.calls.append(kwargs)
        return super().run_batch(program, requests, **kwargs)


class KillWorker:
    """Unpickling this exits the process doing it: placed in a
    request's inputs, it kills the process-pool worker that receives
    the request."""

    def __reduce__(self):
        return (os._exit, (1,))


def _hold_until(release: str) -> int:
    """Create ``release + ".held"``, then block until ``release``
    exists (at most 60 s)."""
    open(release + ".held", "w").close()
    deadline = time.monotonic() + 60.0
    while not os.path.exists(release) and time.monotonic() < deadline:
        time.sleep(0.005)
    return 0


class HoldWorker:
    """Unpickling this holds the process doing it until the file
    ``release`` exists: placed in a request's inputs, it keeps the
    process-pool worker that receives the request mid-batch.  The
    worker creates ``release + ".held"`` once it is held."""

    def __init__(self, release: os.PathLike):
        self.release = os.fspath(release)

    def __reduce__(self):
        return (_hold_until, (self.release,))


def quick_settings(**overrides) -> TunerSettings:
    defaults = dict(input_sizes=(16.0, 64.0), rounds_per_size=2,
                    mutation_attempts=6, min_trials=2, max_trials=5,
                    seed=7, initial_random=1, guided_max_evaluations=12,
                    accuracy_confidence=None)
    defaults.update(overrides)
    return TunerSettings(**defaults)


def tune_pickmean(backend=None, cache=None, **overrides):
    program, _ = compile_program(make_pickmean_transform())
    with ProgramTestHarness(program, pickmean_inputs, base_seed=3,
                            backend=backend, cache=cache) as harness:
        result = Autotuner(program, harness,
                           quick_settings(**overrides)).tune()
    return harness, result


BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessPoolBackend(max_workers=2),
}


# ----------------------------------------------------------------------
# Backend equivalence & determinism
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        harness, result = tune_pickmean(SerialBackend())
        return harness.trials_run, result

    @pytest.mark.parametrize("name", list(BACKENDS))
    def test_identical_tuning_results(self, name, serial_reference):
        """Every backend reproduces the serial frontier bit-for-bit."""
        serial_trials, serial_result = serial_reference
        harness, result = tune_pickmean(BACKENDS[name]())
        assert harness.trials_run == serial_trials
        assert result.trials_run == serial_trials
        assert result.frontier() == serial_result.frontier()
        assert result.unmet_bins == serial_result.unmet_bins
        assert {t: c.config for t, c in result.best_per_bin.items()} == \
            {t: c.config for t, c in serial_result.best_per_bin.items()}

    def test_batch_outcomes_align_with_requests(self):
        """run_batch returns outcomes positionally, whatever the order
        of completion."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        candidate = Candidate(program.default_config())
        requests = [harness.build_request(candidate, 32.0, i)
                    for i in range(8)]
        serial = SerialBackend().run_batch(program, requests)
        with ProcessPoolBackend(max_workers=2) as processes:
            parallel = processes.run_batch(program, requests)
        assert [(o.objective, o.accuracy, o.failed) for o in serial] == \
            [(o.objective, o.accuracy, o.failed) for o in parallel]

    def test_process_chunks_are_strided_and_outcomes_in_order(self):
        """Request i rides in chunk i % k, so one candidate's adjacent
        trials spread over the workers; outcomes still come back in
        request order."""
        backend = ProcessPoolBackend(max_workers=2)
        chunks = backend._chunks(list(range(19)))
        assert chunks == [list(range(19))[i::10] for i in range(10)]
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        requests = [harness.build_request(
            Candidate(program.random_config(np.random.default_rng(i))),
            32.0, i % 3) for i in range(19)]
        with backend:
            parallel = backend.run_batch(program, requests)
        serial = SerialBackend().run_batch(program, requests)
        assert [(o.objective, o.accuracy, o.failed, o.reads)
                for o in parallel] == \
            [(o.objective, o.accuracy, o.failed, o.reads) for o in serial]

    def test_process_pool_per_program_pools(self):
        """Alternating programs keeps one warm pool per program (no
        teardown/respawn per switch), never serves another program's
        worker state, and evicts least-recently-used pools beyond the
        bound."""
        backend = ProcessPoolBackend(max_workers=2, max_pools=2)
        try:
            programs = []
            for _ in range(2):  # two distinct program objects
                program, _ = compile_program(make_pickmean_transform())
                programs.append(program)
                harness = ProgramTestHarness(program, pickmean_inputs,
                                             base_seed=3)
                candidate = Candidate(program.default_config())
                requests = [harness.build_request(candidate, 16.0, i)
                            for i in range(4)]
                parallel = backend.run_batch(program, requests)
                serial = SerialBackend().run_batch(program, requests)
                assert [(o.objective, o.accuracy) for o in parallel] == \
                    [(o.objective, o.accuracy) for o in serial]
                assert id(program) in backend._pools
            assert len(backend._pools) == 2  # both still warm
            # A third program exceeds max_pools: the least recently
            # used pool (program 0's) is closed.
            third, _ = compile_program(make_pickmean_transform())
            harness = ProgramTestHarness(third, pickmean_inputs,
                                         base_seed=3)
            candidate = Candidate(third.default_config())
            requests = [harness.build_request(candidate, 16.0, i)
                        for i in range(4)]
            backend.run_batch(third, requests)
            assert len(backend._pools) == 2
            assert id(programs[0]) not in backend._pools
            assert id(third) in backend._pools
        finally:
            backend.close()
        assert len(backend._pools) == 0

    def test_broken_pool_is_dropped(self):
        """A worker that dies mid-batch fails that batch with
        BrokenProcessPool; the dead pool is dropped, so the next batch
        runs on a fresh one."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3)
        candidate = Candidate(program.default_config())
        healthy = [harness.build_request(candidate, 16.0, i)
                   for i in range(2)]
        poisoned = [healthy[0], dataclasses.replace(
            healthy[1], inputs={**healthy[1].inputs, "die": KillWorker()})]
        with ProcessPoolBackend(max_workers=1,
                                start_method="spawn") as backend:
            with pytest.raises(BrokenProcessPool):
                backend.run_batch(program, poisoned)
            assert id(program) not in backend._pools
            outcomes = backend.run_batch(program, healthy)
            assert not any(outcome.failed for outcome in outcomes)

    def test_process_pool_max_pools_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_pools=0)

    def test_trial_failure_carries_error(self):
        """A failed trial names the exception behind it, so callers
        can tell a broken program from an accuracy miss."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3, cost_limit=0.5)
        candidate = Candidate(program.default_config())
        request = harness.build_request(candidate, 16.0, 0)
        outcome = execute_trial(program, request, cost_limit=0.5)
        assert outcome.failed
        assert "CostLimitExceeded" in outcome.error
        # The error survives the cache's JSON round trip.
        assert TrialOutcome.from_json(outcome.to_json()).error == \
            outcome.error

    def test_outcome_objective_is_the_operation_count(self):
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        request = harness.build_request(
            Candidate(program.default_config()), 16.0, 0)
        result = program.execute(request.inputs, request.n,
                                  request.config, seed=request.seed)
        outcome = execute_trial(program, request)
        assert outcome.objective == result.cost > 0
        assert "wall_time" not in outcome.to_json()

    @pytest.mark.parametrize("function", [
        execute_trial, SerialBackend.run_batch,
        ProcessPoolBackend.run_batch, run_batch_stacked, execute_stacked,
        TrialCache.bucket], ids=lambda f: f.__qualname__)
    def test_no_objective_keyword(self, function):
        # The operation count is the only objective: nothing on the
        # trial path selects one.
        assert "objective" not in inspect.signature(function).parameters

    def test_backend_from_spec_names(self):
        assert isinstance(backend_from_spec("serial"), SerialBackend)
        backend = backend_from_spec("process:2")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2
        with pytest.raises(ConfigError):
            backend_from_spec("quantum")

    @pytest.mark.parametrize("cpus, workers", [
        (1, 2), (4, 4), (64, 8), (None, 2)])
    def test_default_worker_count_tracks_cpus(self, monkeypatch,
                                              cpus, workers):
        """Without an explicit count the process pool takes one worker
        per CPU, at least two and at most eight."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert ProcessPoolBackend().max_workers == workers
        assert backend_from_spec("process").max_workers == workers


# ----------------------------------------------------------------------
# TrialCache
# ----------------------------------------------------------------------
def _config(**entries) -> Configuration:
    return Configuration({name.replace("_", "."): value
                          for name, value in entries.items()})


def _outcome(objective: float, *reads, **fields) -> TrialOutcome:
    return TrialOutcome(objective=objective, accuracy=fields.pop(
        "accuracy", 0.5), reads=tuple(reads), **fields)


class TestTrialCache:
    def test_hit_miss_counters(self):
        cache = TrialCache()
        bucket = TrialCache.bucket(16.0, 0, 3)
        config = _config(p_x=1)
        assert cache.get(bucket, config) is None
        assert (cache.hits, cache.misses) == (0, 1)
        outcome = _outcome(1.5, ("p.x", 16.0, 1), accuracy=0.9)
        cache.put(bucket, outcome)
        assert cache.get(bucket, config) == outcome
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_rewriting_a_key_does_not_evict(self):
        # Storing the same reads again replaces the outcome in place:
        # no second entry, and no earlier entry is dropped.
        cache = TrialCache()
        bucket = TrialCache.bucket(1.0, 0, 0)
        cache.put(bucket, _outcome(0.5, ("p.x", 1.0, 2)))
        cache.put(bucket, _outcome(1.0, ("p.x", 1.0, 1)))
        cache.put(bucket, _outcome(2.0, ("p.x", 1.0, 1)))
        assert len(cache) == 2
        assert cache.get(bucket, _config(p_x=1)).objective == 2.0
        assert cache.get(bucket, _config(p_x=2)).objective == 0.5

    def test_replays_only_configs_resolving_every_read_alike(self):
        cache = TrialCache()
        bucket = TrialCache.bucket(8.0, 0, 0)
        recorded = _outcome(3.0, ("p.rule", 8.0, 1), ("p.k", 8.0, 4))
        cache.put(bucket, recorded)
        # An entry the execution never read may differ freely.
        assert cache.get(bucket, _config(p_rule=1, p_k=4, p_unread=9)) \
            is recorded
        # A decision tree resolves at the recorded n.
        tree = SizeDecisionTree([0, 1], cutoffs=[4.0])
        assert cache.get(bucket, _config(p_rule=tree, p_k=4)) is recorded
        assert cache.get(bucket, _config(p_rule=0, p_k=4)) is None
        assert cache.get(bucket, _config(p_rule=1, p_k=5)) is None
        assert cache.get(bucket, _config(p_rule=1)) is None  # k missing
        # Same reads, another paired trial: a different bucket.
        assert cache.get(TrialCache.bucket(8.0, 1, 0),
                         _config(p_rule=1, p_k=4)) is None

    def test_value_types_never_alias(self):
        # 1, 1.0 and True compare equal but may steer a rule apart.
        cache = TrialCache()
        bucket = TrialCache.bucket(8.0, 0, 0)
        cache.put(bucket, _outcome(1.0, ("p.k", 8.0, 1)))
        assert cache.get(bucket, _config(p_k=1)) is not None
        assert cache.get(bucket, _config(p_k=1.0)) is None
        assert cache.get(bucket, _config(p_k=True)) is None

    def test_unhashable_read_values_are_not_cached(self):
        cache = TrialCache()
        bucket = TrialCache.bucket(8.0, 0, 0)
        cache.put(bucket, _outcome(1.0, ("p.k", 8.0, [1, 2])))  # no raise
        assert len(cache) == 0
        cache.put(bucket, _outcome(1.0, ("p.k", 8.0, 1)))
        assert cache.get(bucket, _config(p_k=[1, 2])) is None

    def test_cost_limit_namespaces_keys(self):
        # A trial's pass/fail status depends on the cost budget, so
        # outcomes measured under different limits must never alias.
        assert TrialCache.bucket(8.0, 1, 0, cost_limit=None) != \
            TrialCache.bucket(8.0, 1, 0, cost_limit=1e6)
        assert TrialCache.bucket(8.0, 1, 0, cost_limit=1e6) != \
            TrialCache.bucket(8.0, 1, 0, cost_limit=2e6)
        cache = TrialCache()
        cache.put(TrialCache.bucket(8.0, 1, 0, cost_limit=1e6),
                  _outcome(1.0, ("p.x", 8.0, 1)))
        assert cache.get(TrialCache.bucket(8.0, 1, 0, cost_limit=2e6),
                         _config(p_x=1)) is None

    def test_large_sizes_never_collide(self, tmp_path):
        # '%g' formatting would fold 1048576 and 1048580 together; the
        # bucket keeps full precision, on disk too.
        near = TrialCache.bucket(1048576.0, 0, 0)
        far = TrialCache.bucket(1048580.0, 0, 0)
        assert near != far
        cache = TrialCache(tmp_path / "sizes.json")
        cache.put(near, _outcome(1.0, ("p.x", 1048576.0, 1)))
        cache.save()
        reloaded = TrialCache(tmp_path / "sizes.json")
        assert reloaded.get(near, _config(p_x=1)) is not None
        assert reloaded.get(far, _config(p_x=1)) is None

    def test_program_namespaces_keys(self):
        # Different programs with identically-serialising configs must
        # not share measurements.
        assert TrialCache.bucket(8.0, 1, 0, program="poisson") != \
            TrialCache.bucket(8.0, 1, 0, program="helmholtz")

    def test_malformed_entries_skipped_on_load(self, tmp_path):
        path = tmp_path / "mixed.json"
        good = {"objective": 2.0, "accuracy": 0.9,
                "reads": [["p.x", 4.0, 1]]}
        path.write_text(json.dumps({"version": 3, "buckets": [
            {"bucket": ["", 4.0, 0, 0, None], "outcomes": [
                {"accuracy": 0.5},                      # missing objective
                None,                                   # not a mapping
                {"objective": None, "accuracy": 0.1},
                {"objective": 1.0, "accuracy": 0.1,     # not a triple
                 "reads": [["p.x", 4.0]]},
                {"objective": 1.0, "accuracy": 0.1,     # unhashable value
                 "reads": [["p.x", 4.0, [1, 2]]]},
                good]},
            {"bucket": ["", 4.0], "outcomes": [good]},  # short bucket
            {"outcomes": [good]},                       # no bucket
            "not a bucket"]}))
        cache = TrialCache(path)  # must not raise
        assert len(cache) == 1
        assert cache.get(TrialCache.bucket(4.0, 0, 0), _config(p_x=1)) == \
            _outcome(2.0, ("p.x", 4.0, 1), accuracy=0.9)

    def test_v2_store_loads_as_empty_cache(self, tmp_path):
        """A store from before the bucket lost its objective field is
        an incompatible version: skipped, never raised, never read as
        today's buckets."""
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2, "buckets": [
            {"bucket": ["", 4.0, 0, 0, "cost", None], "outcomes": [
                {"objective": 2.0, "accuracy": 0.9,
                 "reads": [["p.x", 4.0, 1]]}]}]}))
        cache = TrialCache(path)  # must not raise
        assert len(cache) == 0
        cache.load(path)          # an explicit load skips it too
        assert len(cache) == 0
        assert cache.get(TrialCache.bucket(4.0, 0, 0), _config(p_x=1)) \
            is None
        cache.put(TrialCache.bucket(4.0, 0, 0),
                  _outcome(2.0, ("p.x", 4.0, 1)))
        cache.save()
        assert json.loads(path.read_text())["version"] == 3
        assert len(TrialCache(path)) == 1

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        bucket = TrialCache.bucket(64.0, 2, 11, program="p/gen",
                                   cost_limit=5e8)
        config = _config(p_on=True, p_rule=3, p_w=0.25, p_kind="fast")
        outcomes = [
            _outcome(3.25, ("p.on", None, True), ("p.rule", 64.0, 3),
                     ("p.w", 64.0, 0.25), accuracy=0.875),
            _outcome(float("inf"), ("p.on", None, True),
                     ("p.rule", 64.0, 2), ("p.kind", 64.0, "fast"),
                     failed=True, error="CostLimitExceeded: over"),
            _outcome(1.0, ("p.on", None, False))]
        for outcome in outcomes:
            cache.put(bucket, outcome)
        saved = cache.save()
        assert saved == str(path)
        assert json.loads(path.read_text())["version"] == 3
        reloaded = TrialCache(path)
        assert len(reloaded) == 3
        assert reloaded.get(bucket, config) == outcomes[0]
        assert reloaded.get(bucket, _config(p_on=True, p_rule=2,
                                            p_kind="fast")) == outcomes[1]
        assert reloaded.get(bucket, _config(p_rule=3)) == outcomes[2]
        # Reloaded values keep their types.
        assert reloaded.get(bucket, _config(p_on=True, p_rule=3.0,
                                            p_w=0.25)) is None

    def test_corrupt_store_ignored_at_construction(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json at all")
        cache = TrialCache(path)  # must not raise: it's only a hint
        assert len(cache) == 0
        with pytest.raises(ValueError):
            cache.load(path)  # explicit loads still surface the damage

    @pytest.mark.parametrize("payload", ["[]", "null", "3", '"entries"',
                                         '{"version": 2, "buckets": {}}'])
    def test_non_object_store_ignored_at_construction(self, tmp_path,
                                                      payload):
        path = tmp_path / "odd.json"
        path.write_text(payload)
        cache = TrialCache(path)  # must not raise: it's only a hint
        assert len(cache) == 0

    def test_incompatible_version_ignored(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 999, "entries": {"k": {}}}')
        cache = TrialCache(path)
        assert len(cache) == 0

    def test_version_1_store_skipped(self, tmp_path):
        # A store keyed by config digest predates recorded reads.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"version": 1, "entries": {
            "p|d|n=4.0|t=0|s=0|cost|lim=none":
                {"objective": 2.0, "accuracy": 0.9}}}))
        cache = TrialCache(path)
        assert len(cache) == 0

    def test_cache_eliminates_reexecution_across_runs(self, tmp_path):
        """A second tuning run against a warm cache executes nothing
        new, yet reports the identical result."""
        path = tmp_path / "cache.json"
        cache = TrialCache(path)
        first_harness, first = tune_pickmean(cache=cache)
        # Even the first run replays: mutations whose configs read the
        # same values as an earlier trial reuse its measurements.
        assert 0 < first_harness.trials_executed < first_harness.trials_run
        cache.save()

        warm = TrialCache(path)
        second_harness, second = tune_pickmean(cache=warm)
        assert second_harness.trials_executed == 0
        assert warm.hits == second_harness.trials_run
        assert second.trials_run == first.trials_run
        assert second.frontier() == first.frontier()

    def test_cache_shared_between_identical_configs(self):
        """Two candidates with equal configs share measurements: the
        content address ignores candidate identity."""
        program, _ = compile_program(make_pickmean_transform())
        cache = TrialCache()
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3, cache=cache)
        first = Candidate(program.default_config())
        second = Candidate(program.default_config())
        assert first.candidate_id != second.candidate_id
        harness.ensure_trials(first, 16.0, 3)
        assert harness.trials_executed == 3
        harness.ensure_trials(second, 16.0, 3)
        assert harness.trials_executed == 3  # all three were cache hits
        assert first.results.objectives(16.0) == \
            second.results.objectives(16.0)

    def test_every_harness_owns_a_cache(self):
        program, _ = compile_program(make_pickmean_transform())
        first = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        second = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        assert isinstance(first.cache, TrialCache)
        assert first.cache is not second.cache  # never process-global
        first.ensure_trials(Candidate(program.default_config()), 16.0, 2)
        second.ensure_trials(Candidate(program.default_config()), 16.0, 2)
        assert first.trials_executed == second.trials_executed == 2
        first.ensure_trials(Candidate(program.default_config()), 16.0, 2)
        assert first.trials_executed == 2


# ----------------------------------------------------------------------
# Harness internals
# ----------------------------------------------------------------------
class TestHarness:
    def test_batch_shares_runs_only_between_identical_configs(self):
        """`==` aliases a leaf of 4 and one of 4.0; like the trial cache,
        the batch runs them apart, and runs equal configs of the same
        types once."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        name = "pickmean@main.m"
        default = program.default_config()
        as_int = default.with_entry(name, SizeDecisionTree([4]))
        as_float = default.with_entry(name, SizeDecisionTree([4.0]))
        assert as_int == default == as_float
        outcomes = harness.run_requests([
            harness.build_request(Candidate(config), 16.0, 0)
            for config in (default, as_int, as_float)])
        assert harness.trials_executed == 2
        assert outcomes[2] is outcomes[0]
        read_types = [{type(value) for read, _, value in outcome.reads
                       if read == name} for outcome in outcomes]
        assert read_types == [{float}, {int}, {float}]

    def test_input_cache_lru_bound(self):
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3, input_cache_size=4)
        for trial_index in range(10):
            harness.training_input(16.0, trial_index)
        assert len(harness._input_cache) == 4
        # Most recent entries survive; evicted ones regenerate equal.
        assert (16.0, 9) in harness._input_cache
        early = harness.training_input(16.0, 0)
        again = harness.training_input(16.0, 0)
        assert np.array_equal(early["xs"], again["xs"])

    def test_input_cache_size_validated(self):
        program, _ = compile_program(make_pickmean_transform())
        with pytest.raises(ValueError):
            ProgramTestHarness(program, pickmean_inputs,
                               input_cache_size=0)

    def test_evicted_inputs_keep_trials_paired(self):
        """Eviction must not change measurements: regenerated inputs
        are identical, so a tiny cache tunes identically."""
        _, unbounded = tune_pickmean()
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3, input_cache_size=1)
        result = Autotuner(program, harness, quick_settings()).tune()
        assert result.frontier() == unbounded.frontier()
        assert result.trials_run == unbounded.trials_run

    def test_unknown_settings_objective_raises(self):
        # Malformed settings now fail at construction (ConfigError),
        # before any tuner or harness exists.
        with pytest.raises(ConfigError, match="objective"):
            quick_settings(objective="energy")

    def test_batch_dedups_identical_configs(self):
        """Equal-config candidates in one batch execute each paired
        trial once; the outcome fans out to every requester."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs,
                                     base_seed=3, cache=TrialCache())
        a = Candidate(program.default_config())
        b = Candidate(program.default_config())
        harness.run_trials([(a, 16.0), (b, 16.0)])
        assert harness.trials_executed == 1
        assert harness.trials_run == 2
        assert a.results.objectives(16.0) == b.results.objectives(16.0)

    def test_generator_namespaces_cache(self):
        """The same program tuned with a different input generator
        must not reuse the first generator's measurements."""
        program, _ = compile_program(make_pickmean_transform())
        cache = TrialCache()

        def shifted_inputs(n, rng):
            return {"xs": rng.normal(50.0, 1.0, size=max(2, int(n)))}

        first = ProgramTestHarness(program, pickmean_inputs,
                                   base_seed=3, cache=cache)
        first.ensure_trials(Candidate(program.default_config()), 16.0, 2)
        second = ProgramTestHarness(program, shifted_inputs,
                                    base_seed=3, cache=cache)
        second.ensure_trials(Candidate(program.default_config()), 16.0, 2)
        assert second.trials_executed == 2  # no cross-generator hits

    def test_run_trials_interleaves_candidates(self):
        """A batch mixing candidates assigns per-candidate paired
        trial indices, continuing each candidate's sequence."""
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        a = Candidate(program.default_config())
        b = Candidate(program.default_config())
        harness.run_trials([(a, 16.0), (b, 16.0), (a, 16.0)])
        assert a.results.count(16.0) == 2
        assert b.results.count(16.0) == 1
        # Paired trials: trial 0 of both candidates saw the same input
        # and seed, so equal configs measure identically.
        assert a.results.objectives(16.0)[0] == \
            b.results.objectives(16.0)[0]


# ----------------------------------------------------------------------
# Program picklability (process-backend transport)
# ----------------------------------------------------------------------
class TestProgramPickling:
    def test_suite_program_pickles_by_provenance(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        assert program.provenance == ("benchmark", "poisson")
        clone = pickle.loads(pickle.dumps(program))
        assert clone.root == program.root
        assert sorted(clone.instances) == sorted(program.instances)
        rng = np.random.default_rng(0)
        inputs = spec.generate(7, rng)
        result = clone.execute(inputs, 7.0, clone.default_config(), seed=1)
        reference = program.execute(inputs, 7.0,
                                    program.default_config(), seed=1)
        assert result.cost == reference.cost

    def test_module_level_program_pickles_directly(self):
        program, _ = compile_program(make_pickmean_transform())
        assert program.provenance is None
        clone = pickle.loads(pickle.dumps(program))
        assert clone.root == "pickmean"

    def test_unpicklable_program_is_refused_with_a_pointed_error(self):
        """A program without provenance whose rule is a nested function
        cannot be pickled by name: the process backend refuses it
        before spawning a worker; serial execution is unaffected."""
        def nested_mean(ctx, xs):
            ctx.add_cost(len(xs))
            return float(np.mean(xs))

        transform = Transform("nestedmean", inputs=("xs",),
                              outputs=("est",),
                              accuracy_metric=_pickmean_metric,
                              accuracy_bins=(0.5, 0.9))
        transform.rule(outputs=("est",), inputs=("xs",),
                       name="nested_mean")(nested_mean)
        program, _ = compile_program(transform)
        assert program.provenance is None
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
        candidate = Candidate(program.default_config())
        # Two requests: a single one runs inline, without a pool.
        requests = [harness.build_request(candidate, 8.0, i)
                    for i in range(2)]
        with ProcessPoolBackend(max_workers=1) as backend:
            with pytest.raises(TypeError,
                               match="requires a picklable program"
                                     ".*use SerialBackend"):
                backend.run_batch(program, requests)
        outcomes = SerialBackend().run_batch(program, requests)
        assert not any(outcome.failed for outcome in outcomes)

    def test_process_backend_runs_suite_program(self):
        """End-to-end: provenance-pickled program, worker recompiles,
        outcomes match serial execution exactly."""
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        harness = ProgramTestHarness(program, spec.generate, base_seed=5,
                                     cost_limit=spec.cost_limit)
        candidate = Candidate(program.default_config())
        requests = [harness.build_request(candidate, 7.0, i)
                    for i in range(4)]
        serial = SerialBackend().run_batch(
            program, requests, cost_limit=spec.cost_limit)
        with ProcessPoolBackend(max_workers=2) as backend:
            parallel = backend.run_batch(
                program, requests, cost_limit=spec.cost_limit)
        assert [(o.objective, o.accuracy, o.failed) for o in serial] == \
            [(o.objective, o.accuracy, o.failed) for o in parallel]

    def test_config_digest_is_content_addressed(self):
        program, _ = compile_program(make_pickmean_transform())
        one = program.default_config()
        two = program.default_config()
        assert one is not two
        assert config_digest(one) == config_digest(two)

    def test_configuration_keeps_its_digest(self):
        """The digest is computed once per immutable value, matches a
        fresh digest of an equal value, and survives pickling."""
        program, _ = compile_program(make_pickmean_transform())
        config = program.default_config()
        digest = config.digest
        assert config_digest(config) == digest
        assert config_digest(Configuration.loads(config.dumps())) == digest
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        assert restored.digest == digest
        changed = config.with_entry("pickmean@main.m", 8)
        assert config_digest(changed) != digest

    def test_unpickled_configuration_hashes_afresh(self):
        """String hashes differ between processes, so a configuration
        hashed and pickled in another process must hash as an equal
        configuration built here does."""
        entries = {"a@main.rule": SizeDecisionTree(["x", "y"], [8.0]),
                   "a@main.mode": "fast"}
        script = ("import pickle, sys\n"
                  "from repro.config.configuration import Configuration\n"
                  "from repro.config.decision_tree import SizeDecisionTree\n"
                  "config = Configuration({'a@main.rule': SizeDecisionTree("
                  "['x', 'y'], [8.0]), 'a@main.mode': 'fast'})\n"
                  "hash(config)\n"
                  "sys.stdout.buffer.write(pickle.dumps(config))\n")
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        source = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True,
            timeout=60, env={**os.environ, "PYTHONHASHSEED": seed,
                             "PYTHONPATH": source})
        restored = pickle.loads(done.stdout)
        local = Configuration(entries)
        assert restored == local
        assert hash(restored) == hash(local)
        assert {local: "hit"}.get(restored) == "hit"
