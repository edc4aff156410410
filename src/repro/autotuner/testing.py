"""Population testing: running candidates on training inputs.

"The dominant time requirement of our autotuner is testing candidate
algorithms by running them on training inputs.  This testing measures
both the time required and the resulting accuracy" (Section 5.5.1).

The harness generates training inputs from a per-benchmark generator
function.  Trials are *paired*: trial ``i`` at input size ``n`` uses the
same generated input (and the same execution seed) for every candidate,
which reduces the variance of candidate-vs-candidate comparisons.

Since the trial path dominates tuning time, the harness no longer runs
trials itself: it builds batches of :class:`TrialRequest` work units
and hands them to :func:`~repro.runtime.batching.run_batch_stacked` —
the same dispatch path the serving engine uses — over a pluggable
:class:`~repro.runtime.backends.ExecutionBackend` (serial by default;
the process-pool backend runs batches in parallel).  A
candidate's paired trials on same-shape inputs fuse into one stacked
execution when the program is ``batchable`` and the objective is
cost.  Because a
trial's outcome is fully determined by ``(config, n, trial index, base
seed)``, outcomes are recorded in request order regardless of how the
backend schedules them — tuning results are bit-identical across
backends under the cost objective.  The harness's
:class:`~repro.runtime.backends.TrialCache` (always present; in memory
unless a path persists it) replays a request whenever an earlier
execution of the same paired trial read config values the request's
configuration resolves the same — across candidates, and across runs
when persisted.

``noise`` injects multiplicative Gaussian noise into the objective; it
exists to reproduce the paper's anecdote that increased measurement
variance (rapid mouse movement during autotuning) inflates the number
of adaptive trials.  Noise is applied harness-side, after the backend
returns (and after any cache hit), so the cache stores clean
measurements and noisy replay stays deterministic.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.autotuner.candidate import Candidate
from repro.autotuner.results import Trial
from repro.compiler.program import CompiledProgram
from repro.config.configuration import Configuration
from repro.errors import ReproError
from repro.rng import derive_seed, generator_for
from repro.runtime.backends import (
    ExecutionBackend,
    SerialBackend,
    TrialCache,
    TrialOutcome,
    TrialRequest,
)
from repro.runtime.backends.cache import Bucket
from repro.runtime.batching import run_batch_stacked

__all__ = ["ProgramTestHarness", "InputGenerator"]

#: Input generators map (input size, rng) to the root transform's inputs.
InputGenerator = Callable[[int, np.random.Generator], Mapping[str, object]]

#: Default bound on cached training inputs; see ``input_cache_size``.
DEFAULT_INPUT_CACHE_SIZE = 256


class ProgramTestHarness:
    """Builds trial batches, dispatches them to a backend, records results.

    ``backend`` defaults to :class:`SerialBackend`.  ``cache`` (a
    :class:`TrialCache`) is consulted before dispatch and updated
    after; ``None`` gives the harness its own in-memory cache, which
    lives as long as the harness.  ``input_cache_size`` bounds the
    number of generated training inputs held in memory
    (least-recently-used eviction; ``None`` means unbounded) so long
    sweeps over many sizes don't accumulate every input ever
    generated.
    """

    def __init__(self, program: CompiledProgram,
                 input_generator: InputGenerator, *,
                 objective: str = "cost",
                 base_seed: int = 0,
                 noise: float = 0.0,
                 cost_limit: float | None = None,
                 backend: ExecutionBackend | None = None,
                 cache: TrialCache | None = None,
                 input_cache_size: int | None = DEFAULT_INPUT_CACHE_SIZE):
        if objective not in ("cost", "time"):
            raise ValueError(f"unknown objective {objective!r}")
        if not (math.isfinite(noise) and noise >= 0.0):
            raise ValueError(f"noise must be finite and >= 0: {noise}")
        if input_cache_size is not None and input_cache_size < 1:
            raise ValueError("input_cache_size must be >= 1 or None")
        if objective == "time" and backend is not None and \
                not isinstance(backend, SerialBackend):
            # Concurrent trials time each other's contention: samples
            # would mix loaded and unloaded measurements and bias the
            # adaptive comparisons.  Wall-clock tuning is serial.
            raise ValueError(
                f"objective='time' requires the serial backend; "
                f"{type(backend).__name__} would measure scheduler "
                f"contention, not the candidate")
        self.program = program
        self.input_generator = input_generator
        self.objective = objective
        self.base_seed = base_seed
        self.noise = noise
        self.cost_limit = cost_limit
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache if cache is not None else TrialCache()
        self.input_cache_size = input_cache_size
        self.metric = program.root_transform.accuracy_metric
        if self.metric is None:
            raise ReproError(
                f"transform {program.root!r} has no accuracy metric; "
                f"the variable-accuracy tuner requires one")
        #: Total trials recorded on candidates (used by ablation
        #: benchmarks); includes cache hits, which substitute for runs.
        self.trials_run = 0
        #: Trials actually executed by the backend (excludes cache hits).
        self.trials_executed = 0
        #: (n, trial index) -> (training inputs, execution seed,
        #: trial-cache bucket): everything a paired trial shares
        #: across candidates, derived once.
        self._input_cache: OrderedDict[
            tuple[float, int],
            tuple[Mapping[str, object], int, Bucket]] = OrderedDict()
        # Trial-cache namespace: outcomes depend on the program AND on
        # which generator produced the training inputs, so both name
        # the store.  (Editing a generator's *body* while keeping its
        # name still requires deleting the cache file — see TrialCache.)
        generator_id = getattr(input_generator, "__qualname__",
                               type(input_generator).__name__)
        self._cache_namespace = f"{program.root}/{generator_id}"

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def training_input(self, n: float, trial_index: int
                       ) -> Mapping[str, object]:
        """The (cached) training input for trial ``trial_index`` at ``n``.

        Inputs depend only on (n, trial_index) so that trials pair up
        across candidates; regenerating an evicted entry therefore
        reproduces it exactly.
        """
        return self._paired_trial(float(n), trial_index)[0]

    def _paired_trial(self, n: float, trial_index: int
                      ) -> tuple[Mapping[str, object], int, Bucket]:
        """The input-cache entry of paired trial ``(n, trial_index)``,
        generated on a miss (``n`` already a float)."""
        key = (n, trial_index)
        cached = self._input_cache.get(key)
        if cached is not None:
            self._input_cache.move_to_end(key)
            return cached
        rng = generator_for(self.base_seed, "input", n, trial_index)
        entry = (self.input_generator(int(n), rng),
                 derive_seed(self.base_seed, "exec", n, trial_index),
                 self._new_bucket(n, trial_index))
        self._input_cache[key] = entry
        if self.input_cache_size is not None:
            while len(self._input_cache) > self.input_cache_size:
                self._input_cache.popitem(last=False)
        return entry

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------
    def build_request(self, candidate: Candidate, n: float,
                      trial_index: int) -> TrialRequest:
        n = float(n)
        inputs, seed, _ = self._paired_trial(n, trial_index)
        return TrialRequest(n=n, trial_index=trial_index, seed=seed,
                            config=candidate.config, inputs=inputs)

    def _bucket(self, request: TrialRequest) -> Bucket:
        # A batch larger than the input cache can evict an entry
        # between building a request and resolving it; the bucket is
        # then rebuilt as the entry would have held it.
        cached = self._input_cache.get((request.n, request.trial_index))
        if cached is not None:
            return cached[2]
        return self._new_bucket(request.n, request.trial_index)

    def _new_bucket(self, n: float, trial_index: int) -> Bucket:
        return TrialCache.bucket(n, trial_index, self.base_seed,
                                 program=self._cache_namespace,
                                 objective=self.objective,
                                 cost_limit=self.cost_limit)

    def run_requests(self, requests: Sequence[TrialRequest]
                     ) -> list[TrialOutcome]:
        """Resolve requests through the cache, dispatch misses as one
        batch, and return outcomes aligned with ``requests``.

        The cache only serves the deterministic cost objective:
        wall-clock measurements are not determined by the request, so
        replaying them across runs (and machines) would be wrong.
        """
        if self.objective != "cost":
            return self._dispatch(list(requests))
        cache = self.cache
        outcomes: list[TrialOutcome | None] = [None] * len(requests)
        buckets = [self._bucket(request) for request in requests]
        # Misses with identical configs at the same paired trial execute
        # once and fan out: each miss maps to the position that runs it.
        # The key is the config itself, or its digest if it cannot be
        # hashed; `identical` keeps 1, 1.0 and True apart, as the cache
        # does.
        first: dict[tuple[Bucket, Configuration | str], int] = {}
        runs_for: dict[int, int] = {}
        for position, (request, bucket) in enumerate(zip(requests,
                                                          buckets)):
            hit = cache.get(bucket, request.config)
            if hit is not None:
                outcomes[position] = hit
                continue
            try:
                earlier = first.setdefault((bucket, request.config),
                                           position)
            except TypeError:  # an unhashable config value
                earlier = first.setdefault(
                    (bucket, request.config.digest), position)
            if not requests[earlier].config.identical(request.config):
                earlier = position
            runs_for[position] = earlier
        dispatch = [position for position, earlier in runs_for.items()
                    if earlier == position]
        if dispatch:
            fresh = self._dispatch([requests[i] for i in dispatch])
            for position, outcome in zip(dispatch, fresh):
                cache.put(buckets[position], outcome)
                outcomes[position] = outcome
            for position, earlier in runs_for.items():
                outcomes[position] = outcomes[earlier]
        return outcomes  # type: ignore[return-value]

    def _dispatch(self, requests: list[TrialRequest]
                  ) -> list[TrialOutcome]:
        """Send cache-missing requests to the backend, fusing stackable
        groups (same config digest, same input shapes)."""
        fresh = run_batch_stacked(self.program, requests, self.backend,
                                  objective=self.objective,
                                  cost_limit=self.cost_limit)
        self.trials_executed += len(fresh)
        return fresh

    def _record(self, candidate: Candidate, request: TrialRequest,
                outcome: TrialOutcome) -> Trial:
        objective = outcome.objective
        if not outcome.failed and self.noise > 0.0:
            # Keyed by config digest (not candidate identity), so the
            # injected measurement noise is itself reproducible across
            # runs, processes and cache replays.
            noise_rng = generator_for(
                self.base_seed, "noise", request.n, request.trial_index,
                request.digest)
            objective *= max(1e-9, 1.0 + self.noise * noise_rng.normal())
        trial = Trial(objective=float(objective),
                      accuracy=float(outcome.accuracy),
                      failed=outcome.failed)
        candidate.results.add(request.n, trial)
        self.trials_run += 1
        return trial

    def run_trials(self, batch: Sequence[tuple[Candidate, float]]
                   ) -> list[Trial]:
        """Run one new trial per ``(candidate, n)`` entry, as one batch.

        Trial indices continue each candidate's pairing sequence: a
        candidate listed twice at the same ``n`` gets its next two
        paired trials.  Outcomes are recorded in batch order, so the
        result is independent of backend scheduling.
        """
        counts: dict[tuple[int, float], int] = {}
        requests: list[TrialRequest] = []
        for candidate, n in batch:
            n = float(n)
            key = (candidate.candidate_id, n)
            if key not in counts:
                counts[key] = candidate.results.count(n)
            requests.append(self.build_request(candidate, n, counts[key]))
            counts[key] += 1
        outcomes = self.run_requests(requests)
        return [self._record(candidate, request, outcome)
                for (candidate, _), request, outcome
                in zip(batch, requests, outcomes)]

    # ------------------------------------------------------------------
    # Convenience entry points (the pre-batching API, now thin shims)
    # ------------------------------------------------------------------
    def run_trial(self, candidate: Candidate, n: float) -> Trial:
        """Run one more trial of ``candidate`` at input size ``n``."""
        return self.run_trials([(candidate, n)])[0]

    def ensure_trials(self, candidate: Candidate, n: float,
                      count: int) -> None:
        """Run trials until ``candidate`` has at least ``count`` at ``n``."""
        self.ensure_trials_batch([(candidate, n, count)])

    def ensure_trials_batch(self, specs: Sequence[tuple[Candidate, float,
                                                        int]]) -> None:
        """Top up many candidates in one backend batch.

        ``specs`` is a sequence of ``(candidate, n, count)``; every
        missing trial across all specs is submitted together, which is
        what lets parallel backends see population-sized batches.
        """
        batch: list[tuple[Candidate, float]] = []
        scheduled: dict[tuple[int, float], int] = {}
        for candidate, n, count in specs:
            key = (candidate.candidate_id, float(n))
            have = candidate.results.count(n) + scheduled.get(key, 0)
            need = max(0, count - have)
            scheduled[key] = scheduled.get(key, 0) + need
            batch.extend((candidate, n) for _ in range(need))
        if batch:
            self.run_trials(batch)

    def close(self) -> None:
        """Release backend resources (worker pools)."""
        self.backend.close()

    def __enter__(self) -> "ProgramTestHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
