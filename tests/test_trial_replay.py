"""Replayed trial ≡ executed trial.

The harness's trial cache replays an outcome whenever a request's
configuration resolves every config value an earlier execution of the
same paired trial read to the same value.  These tests re-execute every
replay of small tunes of all six suite programs and require the
measurement to match exactly, run every root rule of every suite
program twice under differently seeded global generators and require
the two executions to agree bit for bit, and pin the reads that make
replay sound:
failed executions carry their reads up to the raise, every backend
ships them back, and the paired execution seed is the one the harness
always derived.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.autotuner.candidate import Candidate
from repro.compiler.compile import compile_program
from repro.config.configuration import Configuration, RecordingConfig
from repro.config.decision_tree import SizeDecisionTree
from repro.config.parameters import ChoiceSiteParam
from repro.errors import ConfigError
from repro.lang.context import MAX_CALL_DEPTH
from repro.lang.transform import CallSite, Transform
from repro.lang.tunables import accuracy_variable
from repro.rng import derive_seed
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    TrialCache,
    TrialOutcome,
    TrialRequest,
    execute_trial,
)
from repro.runtime.backends.base import TRIAL_FAILURES
from repro.runtime.batching import execute_stacked
from repro.suite import get_benchmark

from tests.test_backends import make_pickmean_transform, pickmean_inputs

SUITE_SIZES = {
    "binpacking": (8.0, 32.0),
    "clustering": (16.0, 64.0),
    "helmholtz": (3.0, 7.0),
    "imagecompression": (8.0, 16.0),
    "poisson": (3.0, 7.0),
    "preconditioner": (64.0, 256.0),
}


class ReplayLog(TrialCache):
    """A trial cache that remembers every replay it served."""

    def __init__(self):
        super().__init__()
        self.replays: list = []

    def get(self, bucket, config):
        outcome = super().get(bucket, config)
        if outcome is not None:
            self.replays.append((bucket, config, outcome))
        return outcome


def _spiral_metric(outputs, inputs):
    return 1.0


def _recurse(ctx, x):
    return ctx.call("again", {"x": x}, ctx.n)["y"]


def _stop(ctx, x):
    ctx.add_cost(1)
    return x


def make_spiral_transform() -> Transform:
    """A transform whose default rule calls itself until the call
    depth guard fails the execution; ``pad`` is never read."""
    transform = Transform(
        "spiral", inputs=("x",), outputs=("y",),
        accuracy_metric=_spiral_metric, accuracy_bins=(0.5,),
        tunables=[accuracy_variable("pad", lo=1, hi=9, default=2)],
        calls=[CallSite("again", "spiral", accuracy=0.5)])
    transform.rule(outputs=("y",), inputs=("x",), name="recurse")(_recurse)
    transform.rule(outputs=("y",), inputs=("x",), name="stop")(_stop)
    return transform


def spiral_inputs(n, rng):
    return {"x": float(rng.normal())}


def pickmean_config(program, rule: int, m: float) -> Configuration:
    """pickmean's config choosing ``rule`` (0 samples ``m`` values and
    reads ``m``; 1 takes the exact mean and never reads it)."""
    return program.default_config().with_entries({
        "pickmean@main.rule.est": SizeDecisionTree([rule]),
        "pickmean@main.m": SizeDecisionTree([m])})


# ----------------------------------------------------------------------
# Replay ≡ execution across the suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SUITE_SIZES))
def test_every_replay_re_executes_identically(name):
    spec = get_benchmark(name)
    program, _ = spec.compile()
    cache = ReplayLog()
    harness = ProgramTestHarness(program, spec.generate, base_seed=2,
                                 cost_limit=spec.cost_limit, cache=cache)
    settings = TunerSettings(
        input_sizes=SUITE_SIZES[name], rounds_per_size=1,
        mutation_attempts=6, min_trials=2, max_trials=4, seed=9,
        initial_random=2, guided_max_evaluations=6,
        accuracy_confidence=None, require_targets="ignore")
    Autotuner(program, harness, settings).tune()
    assert cache.replays, f"{name}: the tune replayed nothing"
    assert harness.trials_executed + len(cache.replays) <= \
        harness.trials_run
    for bucket, config, replayed in cache.replays:
        _, n, trial_index = bucket[:3]
        request = TrialRequest(
            n=n, trial_index=trial_index,
            seed=derive_seed(harness.base_seed, "exec", n, trial_index),
            config=config,
            inputs=harness.training_input(n, trial_index))
        executed = execute_trial(program, request,
                                 cost_limit=harness.cost_limit)
        assert (executed.objective, executed.accuracy, executed.failed,
                executed.error) == (replayed.objective, replayed.accuracy,
                                    replayed.failed, replayed.error)
        assert executed.reads == replayed.reads


def root_rule_cases(names=SUITE_SIZES):
    """``(benchmark, choice key, rule index)`` for every rule of every
    root choice site of the named suite programs."""
    cases = []
    for name in sorted(names):
        program, _ = get_benchmark(name).compile()
        prefix = f"{program.root}@main.rule."
        for param in program.space:
            if isinstance(param, ChoiceSiteParam) and \
                    param.name.startswith(prefix):
                cases.extend(
                    pytest.param(name, param.name, index,
                                 id=f"{name}-{param.name[len(prefix):]}-"
                                    f"{label}")
                    for index, label in enumerate(param.choice_labels))
    return cases


def _execution_record(program, spec, config, n, trial):
    """Everything one execution shows: outputs (bytes, dtype, shape),
    cost and reads, or the error it raised."""
    inputs = spec.generate(int(n), np.random.default_rng(trial))
    reads: list = []
    try:
        result = program.execute(inputs, n, config, seed=trial,
                                 cost_limit=spec.cost_limit, reads=reads)
    except TRIAL_FAILURES as exc:  # a failure must be the same failure
        return repr(exc), reads
    outputs = {key: (np.asarray(value).dtype.str,
                     np.asarray(value).shape,
                     np.asarray(value).tobytes())
               for key, value in result.outputs.items()}
    return outputs, result.metrics.cost, reads


@pytest.mark.parametrize("name, site, index", root_rule_cases())
def test_execution_depends_only_on_inputs_seed_and_reads(name, site,
                                                         index):
    """What a replay assumes, per root rule: two executions on the same
    inputs, seed and config agree bit for bit, even with the global
    ``random`` and legacy ``np.random`` generators seeded differently
    in between.  A rule that draws outside ``ctx.rng``, or keeps state
    across executions that reaches its outputs, fails here."""
    spec = get_benchmark(name)
    program, _ = spec.compile()
    config = program.default_config().with_entries(
        {site: SizeDecisionTree([index])})
    n = SUITE_SIZES[name][1]
    saved = random.getstate(), np.random.get_state()
    records = []
    try:
        for global_seed in (1, 2):
            random.seed(global_seed)
            np.random.seed(global_seed)
            records.append(_execution_record(program, spec, config, n,
                                             trial=index))
    finally:
        random.setstate(saved[0])
        np.random.set_state(saved[1])
    assert records[0] == records[1]


# ----------------------------------------------------------------------
# Failures replay as the same failure
# ----------------------------------------------------------------------
class TestFailedReplay:
    def test_cost_limit_failure_replays_without_executing(self):
        program, _ = compile_program(make_pickmean_transform())
        harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3,
                                     cost_limit=5.0)
        # The exact mean costs 2n = 32 > 5 and never reads m, so a
        # config differing only in m must replay the same failure.
        first = Candidate(pickmean_config(program, 1, 4.0))
        second = Candidate(pickmean_config(program, 1, 9.0))
        assert first.config.digest != second.config.digest
        harness.ensure_trials(first, 16.0, 2)
        assert harness.trials_executed == 2
        harness.ensure_trials(second, 16.0, 2)
        assert harness.trials_executed == 2
        for a, b in zip(first.results.trials(16.0),
                        second.results.trials(16.0)):
            assert a.failed and b.failed
            assert (a.objective, a.accuracy) == (b.objective, b.accuracy)
        bucket = harness._bucket(harness.build_request(second, 16.0, 0))
        replayed = harness.cache.get(bucket, second.config)
        assert replayed.error.startswith("CostLimitExceeded")
        assert replayed.reads == (("pickmean@main.rule.est", 16.0, 1),)

    def test_failed_outcome_carries_reads_up_to_the_raise(self):
        program, _ = compile_program(make_pickmean_transform())
        config = pickmean_config(program, 0, 4.0)
        request = TrialRequest(
            n=16.0, trial_index=0, seed=1,
            config=config, inputs=pickmean_inputs(16, np.random.default_rng(0)))
        outcome = execute_trial(program, request, cost_limit=2.0)
        assert outcome.failed
        assert outcome.reads == (("pickmean@main.rule.est", 16.0, 0),
                                 ("pickmean@main.m", 16.0, 4.0))
        # A config that reads the same values replays it; one whose
        # sample size differs does not.
        cache = TrialCache()
        bucket = TrialCache.bucket(16.0, 0, 1)
        cache.put(bucket, outcome)
        assert cache.get(bucket, config) is outcome
        assert cache.get(bucket, pickmean_config(program, 0, 3.0)) is None

    def test_call_depth_failure_replays_as_the_same_failure(self):
        program, _ = compile_program(make_spiral_transform())
        harness = ProgramTestHarness(program, spiral_inputs, base_seed=4)
        first = Candidate(program.default_config())  # always recurses
        harness.ensure_trials(first, 4.0, 1)
        assert harness.trials_executed == 1
        failed = first.results.trials(4.0)[0]
        assert failed.failed
        bucket = harness._bucket(harness.build_request(first, 4.0, 0))
        recorded = harness.cache.get(bucket, first.config)
        assert recorded.error.startswith("ExecutionError: call depth")
        assert len(recorded.reads) == MAX_CALL_DEPTH + 1
        # pad is never read: the twin replays the failure unexecuted.
        twin = Candidate(first.config.with_entry(
            "spiral@main.pad", SizeDecisionTree([7.0])))
        harness.ensure_trials(twin, 4.0, 1)
        assert harness.trials_executed == 1
        assert twin.results.trials(4.0)[0] == failed
        # Stopping at the top reads a different value: it executes.
        stops = Candidate(first.config.with_entry(
            "spiral@main.rule.y", SizeDecisionTree([1])))
        harness.ensure_trials(stops, 4.0, 1)
        assert harness.trials_executed == 2
        assert not stops.results.trials(4.0)[0].failed


# ----------------------------------------------------------------------
# Reads: recorded everywhere, and on every path back
# ----------------------------------------------------------------------
def pickmean_requests(program, count: int = 4) -> list[TrialRequest]:
    config = pickmean_config(program, 0, 4.0)
    rng = np.random.default_rng(5)
    return [TrialRequest(n=16.0, trial_index=t,
                         seed=t, config=config,
                         inputs=pickmean_inputs(16, rng))
            for t in range(count)]


class TestReads:
    def test_contexts_read_through_the_recorder(self):
        seen = []

        def spy(ctx, xs):
            # Even a rule reaching for ctx.config reads through it.
            seen.append(ctx.config)
            ctx.config.lookup(ctx.instance.key("m"), ctx.n)
            return float(np.mean(xs))

        transform = make_pickmean_transform()
        transform.rule(outputs=("est",), inputs=("xs",), name="spy")(spy)
        program, _ = compile_program(transform)
        config = pickmean_config(program, 2, 4.0)
        result = program.execute(pickmean_inputs(8, np.random.default_rng(0)),
                                 8.0, config)
        assert isinstance(seen[0], RecordingConfig)
        assert not isinstance(seen[0], Configuration)
        assert result.reads == (("pickmean@main.rule.est", 8.0, 2),
                                ("pickmean@main.m", 8.0, 4.0))

    def test_precision_containment_check_is_a_read(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        config = program.default_config()
        inputs = spec.generate(7, np.random.default_rng(0))
        reads = program.execute(inputs, 7.0, config).reads
        assert reads[:2] == (("poisson@main.precision", None, True),
                             ("poisson@main.precision", 7.0, "float64"))
        # A config predating the precision tunable reads "absent" and
        # never replays an outcome that read "present".
        entries = {name: config[name] for name in config
                   if not name.endswith(".precision")}
        legacy = Configuration(entries)
        assert program.execute(inputs, 7.0, legacy).reads[0] == \
            ("poisson@main.precision", None, False)
        outcome = TrialOutcome(objective=1.0, accuracy=1.0, reads=reads)
        cache = TrialCache()
        bucket = TrialCache.bucket(7.0, 0, 0)
        cache.put(bucket, outcome)
        assert cache.get(bucket, config) is outcome
        assert cache.get(bucket, legacy) is None

    def test_missing_entry_lookup_records_its_absence(self):
        recorder = RecordingConfig(Configuration({"a": 1}))
        assert "a" in recorder
        assert recorder.lookup("a", 3) == 1
        with pytest.raises(ConfigError):
            recorder.lookup("b", 3.0)
        assert recorder.reads == [("a", None, True), ("a", 3.0, 1),
                                  ("b", None, False)]

    @pytest.mark.parametrize("backend", [
        SerialBackend, lambda: ProcessPoolBackend(max_workers=2)],
        ids=["serial", "process"])
    def test_reads_ride_back_on_every_backend(self, backend):
        program, _ = compile_program(make_pickmean_transform())
        requests = pickmean_requests(program)
        reference = [execute_trial(program, request) for request in requests]
        with backend() as running:
            outcomes = running.run_batch(program, requests)
        assert [o.reads for o in outcomes] == [o.reads for o in reference]
        assert outcomes[0].reads == (("pickmean@main.rule.est", 16.0, 0),
                                     ("pickmean@main.m", 16.0, 4.0))

    def test_stacked_outcomes_carry_the_scalar_reads(self):
        spec = get_benchmark("poisson")
        program, _ = spec.compile()
        config = program.default_config()
        rng = np.random.default_rng(8)
        requests = [TrialRequest(n=7.0, trial_index=t,
                                 seed=t, config=config,
                                 inputs=spec.generate(7, rng))
                    for t in range(3)]
        fused = execute_stacked(program, requests, cost_limit=5e8)
        assert fused is not None
        for outcome, request in zip(fused, requests):
            scalar = execute_trial(program, request, cost_limit=5e8)
            assert outcome.reads == scalar.reads
            assert len(outcome.reads) > 10


# ----------------------------------------------------------------------
# The paired execution seed
# ----------------------------------------------------------------------
def test_exec_seed_is_derived_once_with_the_same_value():
    program, _ = compile_program(make_pickmean_transform())
    # A one-entry input cache: most requests regenerate their entry.
    harness = ProgramTestHarness(program, pickmean_inputs, base_seed=13,
                                 input_cache_size=1)
    candidate = Candidate(program.default_config())
    for n in (2.0, 16.0, 1048580.0):
        for trial_index in (0, 1, 7):
            for _ in range(2):
                request = harness.build_request(candidate, n, trial_index)
                assert request.seed == derive_seed(13, "exec", n,
                                                   trial_index)
