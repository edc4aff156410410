"""The benchmark's three workloads and every input they pin.

The two paths users take, tuning and serving.  On the serving path one
workload is dominated by the layer most likely to be optimised and one
barely touches it, so a gain on one that costs the other shows:

* ``tune-binpacking``: many short ``Project.tune`` runs on bin packing
  at n = 8, 32, 128.  Trials are cheap and the program is not
  batchable, so stacking is bypassed and search bookkeeping and
  interpreter dispatch show.
* ``serve-open``: open-loop bursts of Poisson requests through
  ``FrontDoor.submit`` into an ``async:2x1`` front door with serial
  shards: admission, queue wait and micro-batching into stacked
  serving waves.
* ``serve-closed``: one caller doing ``Service.serve_one`` on the
  unsharded engine: no front door, one request per wave.

Every input is fixed here: explicit tuner settings (never a preset
name), a committed, digest-checked tuned artifact for serving, the
request mix, the round counts, the absolute arrival rate and the
latency limits (also stated in BENCHMARK.json, which ``run.py`` checks).
Inputs are generated from the workload seed; no load is sized from a
measurement taken in the same run.

Every workload reports every end-to-end metric.  A tune workload ends
by using its result: a closed stream of ``TunedHandle.run`` calls on
held-out inputs, one per tuned bin and input, supplies its request
metrics (latency, SLO, accuracy misses).  A serve workload's trials are
program executions, and its frontier is the served artifact's.

Timed work is cut into many short units of equal work (a tune, a set-up,
a round of requests).  Each unit's times are
divided by the host speed factor probed around it (``speed`` says why),
and timing metrics come from the faster half of the units
(``checks.FAST_SHARE``); checks and the accuracy and shed shares cover
every unit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Mapping

import numpy as np

import repro.suite.poisson as poisson_suite
from repro.api import Project, Service, ServicePolicy
from repro.autotuner import TunerSettings
from repro.serving import ServeRequest
from repro.suite import get_benchmark

from checks import (binpacking_accuracy, expected_bin,
                    fast_mean, fastest, geomean, nearest_rank,
                    poisson_accuracy, smoothed_share, tail_percentile)
from speed import NUMPY, PYTHON, SpeedProbe
from tracer import Clock, Tracer

__all__ = ["WORKLOADS", "Result"]

HERE = os.path.dirname(os.path.abspath(__file__))

#: The tuned Poisson artifact the serve workloads load (an
#: ArtifactStore root) and the SHA-256 of its one artifact file.  A
#: tuner change therefore cannot move serve numbers, and an edited or
#: regenerated artifact fails before anything is measured
#: (``make_artifact.py`` rebuilds it and prints the new digest).
ARTIFACT_STORE = os.path.join(HERE, "artifact")
ARTIFACT_FILE = os.path.join(ARTIFACT_STORE, "poisson", "default.json")
ARTIFACT_SHA256 = \
    "90f15312c0c772d4cf0b81d14c1f3c44f8dfbeee3a6a1a2489af396ccdd03021"

#: Set-ups per serve run; ``setup_s`` is the mean of the faster half.
SERVE_SETUPS = 10

#: The serve request mix: every artifact bin, an in-between target,
#: ``None`` (the most accurate bin) and an unreachable target (a
#: by-design fallback); sizes n=7 (four in five) and n=15; one request
#: in four sets ``verify``.  Every ``ROUND`` consecutive requests hold
#: each size and accuracy pair once and exactly ten verify requests, so
#: rounds do equal work; every 160 also cross verify with each pair.
MIX_ACCURACIES = (1.0, 3.0, 5.0, 7.0, 9.0, 4.0, None, 20.0)
UNREACHABLE = 20.0
MIX_SIZES = (7, 7, 7, 7, 15)
ROUND = 40
#: Distinct generated inputs per size that requests draw from.
INPUT_POOL = 32



@dataclass
class Outcome:
    """One request, or one held-out run, as the benchmark judged it."""

    latency: float
    expected: bool                 # came back as the workload expects
    miss: bool | None = None       # achieved below request (None: excluded)
    degraded: bool | None = None   # shed to a cheaper bin (None: not served)


@dataclass
class Result:
    """What one run of a workload measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, str] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Compared between an untraced and a traced run: trace overhead.
    reference: float = 0.0
    clocks: list[Clock] = field(default_factory=list)
    setups: int = 0
    #: Per-layer figures measured outside the tracer.
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: str) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def put_requests(result: Result, timed: list[Outcome], wall: float,
                 scope: str, every: list[Outcome], limit_s: float) -> None:
    """The request metrics every workload reports: rate, latency and SLO
    metrics from the ``timed`` requests, which took ``wall`` seconds;
    accuracy and shed shares from ``every`` request."""
    count = len(timed)
    result.put("throughput_rps", count / wall, scope)
    latencies = [o.latency for o in timed]
    result.put("latency_p50_ms", 1e3 * nearest_rank(latencies, 50.0),
               scope)
    percent, tail = tail_percentile(latencies)
    result.put("latency_tail_ms", 1e3 * tail, f"p{percent:g} of {scope}")
    within = sum(o.expected and o.latency <= limit_s for o in timed)
    result.put("slo_attainment", within / count,
               f"{within} of {scope} as expected within "
               f"{limit_s * 1e3:g} ms")
    result.put("max_rps_at_slo", within / wall,
               f"requests within the limit per second, {scope}")
    counted = [o.miss for o in every if o.miss is not None]
    result.put("accuracy_miss_fraction",
               smoothed_share(sum(counted), len(counted)),
               f"{sum(counted)} of {len(counted)} below the request, "
               f"(k+0.5)/(n+1)")
    served = [o.degraded for o in every if o.degraded is not None]
    result.put("degraded_fraction",
               smoothed_share(sum(served), len(served)),
               f"{sum(served)} of {len(served)} shed, (k+0.5)/(n+1)")


def speed_note(units: str, factors: list[float]) -> str:
    ordered = sorted(factors)
    return (f"host speed factor over {len(ordered)} {units}: min "
            f"{ordered[0]:.3f}, median {ordered[len(ordered) // 2]:.3f}, "
            f"max {ordered[-1]:.3f}")


def put_memory(result: Result) -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.put("peak_rss_mb", peak, "process peak")


# ======================================================================
# Tuning
# ======================================================================
def warm_up(project: Project, generate, sizes, seed: int) -> None:
    """One run of the default configuration at every training size."""
    rng = np.random.default_rng([seed, 4])
    config = project.program.default_config()
    for n in sizes:
        project.program.execute(generate(int(n), rng), n, config)


@dataclass(frozen=True)
class TuneWorkload:
    """``Project.tune`` with pinned settings, then a held-out stream.

    The tuning problem itself is pinned: ``tune_seed`` fixes both the
    training inputs and the genetic search.  The search path, and with
    it trial count, frontier and tuned bins, changes with any seed, so a
    seed-drawn problem would spread every tune metric far wider than
    any bound worth having.  The workload seed draws the held-out
    inputs the tuned result is checked and timed on.
    """

    name: str
    benchmark: str
    tune_seed: int
    #: Every TunerSettings knob but ``seed`` and ``log``: a changed
    #: default cannot move the workload.
    settings: Mapping[str, Any]
    #: Timed tunes per second of ``--seconds`` (at least ten).
    tunes_per_s: float
    check_size: int
    #: Held-out inputs; after each tune, the next ``check_round`` of them
    #: (cycling) are each swept over every tuned bin, so every input is
    #: swept many times, spread over the whole run.
    check_inputs: int
    check_round: int
    latency_limit_ms: float
    #: How far a bin's held-out mean accuracy may fall short of its
    #: target (metric units): tuning guarantees the training inputs.
    slack: float

    def pinned(self) -> tuple[str, ...]:
        sizes = "/".join(f"{n:g}" for n in self.settings["input_sizes"])
        return f"n={sizes}", f"limit {self.latency_limit_ms:g} ms"

    def tuner_settings(self) -> TunerSettings:
        knobs = {f.name for f in fields(TunerSettings)} - {"seed", "log"}
        missing = sorted(knobs - set(self.settings))
        if missing:
            raise ValueError(f"{self.name} leaves tuner settings "
                             f"{missing} at their defaults; pin them")
        return TunerSettings(seed=self.tune_seed, **self.settings)

    def run(self, seed: int, seconds: float,
            tracer: Tracer | None = None) -> Result:
        result = Result()
        suite = importlib.import_module(f"repro.suite.{self.benchmark}")
        settings = self.tuner_settings()
        tunes = max(10, round(self.tunes_per_s * seconds))
        rng = np.random.default_rng([seed, 2])
        cases = [suite.generate(self.check_size, rng)
                 for _ in range(self.check_inputs)]
        #: Per held-out input: (runs, normalized latency) of each sweep.
        sweeps: list[list] = [[] for _ in cases]
        setups, walls, round_walls, runs = [], [], [], []
        speed = SpeedProbe(PYTHON)
        for index in range(tunes):
            start = time.perf_counter()
            project = Project.from_benchmark(
                self.benchmark, training_inputs=suite.generate,
                base_seed=self.tune_seed)
            try:
                warm_up(project, suite.generate, settings.sizes(), seed)
                setup = time.perf_counter() - start
                with Clock(tracer) as clock:
                    handle = project.tune(settings)
            finally:
                project.close()
            factor = speed.factor()
            result.clocks.append(clock)
            setups.append(setup / factor)
            walls.append(clock.elapsed / factor)
            runs.append((handle.trials_run, handle.frontier()))
            if tracer is not None:
                tracer.phase = "check"
            first = index * self.check_round
            picked = [(first + k) % len(cases)
                      for k in range(self.check_round)]
            round_walls.append(self._sweep(handle, cases, picked, sweeps,
                                           speed))
            if tracer is not None:
                tracer.phase = "setup"
        result.notes.append(speed_note("tunes and held-out rounds",
                                       speed.factors))
        trials, frontier = runs[0]
        result.check("tuning is deterministic across repeated tunes",
                     all(run == runs[0] for run in runs),
                     f"{tunes} tunes of {trials} trials")
        runs_checked, invalid = self._judge(result, handle, cases, sweeps,
                                            round_walls)

        program = handle.project.program
        result.setups = tunes
        result.put("setup_s", fast_mean(setups),
                   f"faster half of {tunes} set-ups")
        wall = fast_mean(walls)
        result.put("wall_s", wall, f"faster half of {tunes} tunes")
        result.put("trials_per_s", trials / wall,
                   f"{trials} trials per tune")
        result.put("frontier_cost",
                   geomean([cost for _, _, cost in frontier]),
                   f"{len(frontier)} tuned bins at "
                   f"n={settings.sizes()[-1]:g}")
        result.put("bins_met", float(len(frontier)),
                   f"of {len(program.root_transform.accuracy_bins)} "
                   f"declared bins")
        put_memory(result)
        result.attempted = tunes * trials + runs_checked
        result.failed = invalid
        result.reference = wall
        return result

    def _sweep(self, handle, cases, picked: list[int], sweeps,
               speed: SpeedProbe) -> float:
        """Sweep every tuned bin over the picked held-out inputs; returns
        the round's normalized wall time."""
        n = self.check_size
        targets = [target for target, _, _ in handle.frontier()]
        timed = []
        began = time.perf_counter()
        for index in picked:
            sent = time.perf_counter()
            done = [handle.run(cases[index], n, bin_target=target)
                    for target in targets]
            timed.append((index, done, time.perf_counter() - sent))
        wall = time.perf_counter() - began
        factor = speed.factor()
        for index, done, latency in timed:
            sweeps[index].append((done, latency / factor))
        return wall / factor

    def _judge(self, result: Result, handle, cases, sweeps, round_walls
               ) -> tuple[int, int]:
        """Judge every held-out run; report the request metrics.

        One request of the stream runs the whole tuned frontier on one
        held-out input, so every request does the same mix of work and
        the latency distribution has one mode, not one per bin.
        Returns ``(runs, invalid runs)``.
        """
        program = handle.project.program
        metric = program.root_transform.accuracy_metric
        targets = [target for target, _, _ in handle.frontier()]
        every: list[Outcome] = []
        timed: list[Outcome] = []
        per_bin: dict[float, list[float]] = {}
        disagree = wrong_bin = invalid = total = 0
        for inputs, repeats in zip(cases, sweeps):
            outcomes = []
            for done, latency in repeats:
                expected = True
                for target, run in zip(targets, done):
                    total += 1
                    try:
                        achieved = binpacking_accuracy(
                            inputs["items"], run.outputs["assignment"],
                            run.outputs["num_bins"], inputs["optimal_bins"])
                    except ValueError as exc:
                        invalid += 1
                        expected = False
                        result.notes.append(f"bin {target:g}: invalid "
                                            f"output: {exc}")
                        continue
                    reported = program.accuracy_of(run.outputs, inputs)
                    agrees = math.isclose(achieved, reported, rel_tol=1e-9,
                                          abs_tol=1e-9)
                    right_bin = run.bin_target == target
                    disagree += not agrees
                    wrong_bin += not right_bin
                    expected = expected and agrees and right_bin
                    per_bin.setdefault(target, []).append(achieved)
                outcomes.append(Outcome(latency, expected, degraded=False))
            every += outcomes
            # A request's latency is the mean of the faster half of its
            # input's sweeps, so the latency distribution is one over the
            # inputs the seed drew, not over the host's slow spells.
            timed.append(Outcome(fast_mean([o.latency for o in outcomes]),
                                 all(o.expected for o in outcomes),
                                 degraded=False))
        result.check("held-out outputs are valid", invalid == 0,
                     f"{invalid} of {total} invalid")
        result.check("held-out accuracy recomputed independently matches "
                     "the program's metric", disagree == 0,
                     f"{disagree} of {total} disagree")
        result.check("every held-out run used its requested bin",
                     wrong_bin == 0, f"{wrong_bin} of {total} wrong")
        sign = 1.0 if metric.higher_is_better else -1.0
        missed = 0
        for target, achieved in sorted(per_bin.items()):
            held = sum(achieved) / len(achieved)
            missed += not metric.meets(held, target)
            result.check(f"bin {target:g} meets its target on held-out "
                         f"inputs", metric.meets(held + sign * self.slack,
                                                 target),
                         f"mean {held:.4g} over {len(achieved)} runs, "
                         f"slack {self.slack:g}")
        repeats = min(len(r) for r in sweeps)
        put_requests(result, timed,
                     fast_mean(round_walls) * len(cases) / self.check_round,
                     f"{len(cases)} held-out inputs, each the faster half "
                     f"of its {repeats} or more sweeps", every,
                     self.latency_limit_ms / 1e3)
        # Tuning promises each bin's mean accuracy, not every run's, so
        # a tune workload's miss is a bin whose held-out mean misses.
        result.put("accuracy_miss_fraction",
                   smoothed_share(missed, len(per_bin)),
                   f"{missed} of {len(per_bin)} bins' held-out mean below "
                   f"target, (k+0.5)/(n+1)")
        return total, invalid


def _tune_settings(**overrides: Any) -> dict[str, Any]:
    """Every TunerSettings knob, spelled out (see TuneWorkload)."""
    settings = dict(
        max_input_size=64.0, min_input_size=2.0, input_sizes=None,
        rounds_per_size=2, mutation_attempts=8, k_per_bin=2,
        min_trials=3, max_trials=25, objective="cost", initial_random=2,
        accuracy_confidence=0.9, require_targets="warn",
        guided_max_evaluations=24, guided_factor=2.0, max_tree_levels=4,
        keep_most_accurate=True, copy_parent_results=True,
        include_meta_mutators=True, lognormal_scaling=True,
        use_guided_mutation=True, prefer_root_mutators=True,
        root_mutator_weight=4.0)
    settings.update(overrides)
    return settings


# A tune is the timed unit, so it is kept to about a tenth of a second:
# one round per size.
TUNE_BINPACKING = TuneWorkload(
    name="tune-binpacking", benchmark="binpacking", tune_seed=5,
    settings=_tune_settings(
        input_sizes=(8.0, 32.0, 128.0), max_input_size=128.0,
        min_input_size=8.0, rounds_per_size=1, mutation_attempts=16,
        min_trials=3, max_trials=10, accuracy_confidence=None,
        guided_max_evaluations=8),
    tunes_per_s=4, check_size=128, check_inputs=100, check_round=10,
    latency_limit_ms=20.0, slack=0.02)


# ======================================================================
# Serving
# ======================================================================
def artifact_bins() -> list[float]:
    """The artifact's tuned bins, least to most accurate, read from
    the committed file itself (not through the loader under test)."""
    with open(ARTIFACT_FILE, encoding="utf-8") as handle:
        data = json.load(handle)
    declared = [float(t) for t in data["declared_bins"]]
    return sorted((float(key) for key in data["bins"]), key=declared.index)


def load_service(policy: ServicePolicy):
    """Compile, load the digest-checked artifact, validate its configs
    against the compiled program's space.  Returns (service, tuned)."""
    with open(ARTIFACT_FILE, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    if digest != ARTIFACT_SHA256:
        raise RuntimeError(
            f"{ARTIFACT_FILE} has SHA-256 {digest}, expected "
            f"{ARTIFACT_SHA256}; regenerate it with make_artifact.py in a "
            f"change of its own and pin the new digest")
    program, _ = get_benchmark("poisson").compile()
    service = Service.load(ARTIFACT_STORE, program="poisson",
                           policy=policy, compiled=program)
    try:
        tier = (service.frontdoor if service.frontdoor is not None
                else service.engine)
        tuned = tier.program_for("poisson")
        for config in tuned.bin_configs.values():
            program.space.validate(config)
    except BaseException:
        service.close()
        raise
    return service, tuned


def input_pools(seed: int) -> dict[int, list]:
    rng = np.random.default_rng([seed, 5])
    return {n: [poisson_suite.generate(n, rng) for _ in range(INPUT_POOL)]
            for n in sorted(set(MIX_SIZES))}


def request_mix(rng: np.random.Generator, pools, count: int,
                first_id: int) -> list[ServeRequest]:
    """``count`` requests of the crossed mix, in seeded order within
    each block of ``ROUND``.

    Each request's ``seed`` is a unique id, which lets the trace match
    a request's admission to its execution.
    """
    classes = [(MIX_SIZES[i % 5], MIX_ACCURACIES[i % 8],
                (i + i // ROUND) % 4 == 0) for i in range(count)]
    order = [first + int(offset) for first in range(0, count, ROUND)
             for offset in rng.permutation(min(ROUND, count - first))]
    requests = []
    for position, index in enumerate(order):
        n, accuracy, verify = classes[index]
        inputs = pools[n][int(rng.integers(INPUT_POOL))]
        requests.append(ServeRequest(
            program="poisson", inputs=inputs, n=float(n),
            accuracy=accuracy, verify=verify, seed=first_id + position))
    return requests


def warm_requests(pools, bins) -> list[ServeRequest]:
    """One request per size and bin, with ids far from measured ones."""
    cases = [(n, pool[0], target) for n, pool in pools.items()
             for target in bins]
    return [ServeRequest(program="poisson", inputs=inputs, n=float(n),
                         accuracy=target, seed=10 ** 9 + index)
            for index, (n, inputs, target) in enumerate(cases)]


def judge(result: Result, bins: list[float], requests, responses,
          latencies) -> tuple[list[Outcome], dict[float, list[float]]]:
    """Check every response independently of the code under test."""
    outcomes: list[Outcome] = []
    served_accuracy: dict[float, list[float]] = {}
    mismatch = wrong_bin = unexpected = 0
    fallbacks = want_fallbacks = verify_failures = want_failures = 0
    for request, response, latency in zip(requests, responses, latencies):
        unreachable = request.accuracy == UNREACHABLE
        shed = response.degraded
        designed = unreachable and request.verify and shed == 0
        want_fallbacks += unreachable and shed == 0
        want_failures += designed
        fallbacks += response.fallback
        want_bin, want_fallback = expected_bin(
            bins, True, request.accuracy, degraded=shed,
            escalations=response.escalations)
        if not response.ok:
            failed_verify = (response.error or "").startswith(
                "verify_accuracy failed")
            verify_failures += failed_verify
            expected = designed and failed_verify
            unexpected += not expected
            if failed_verify and (response.bin_target != want_bin
                                  or response.fallback != want_fallback):
                wrong_bin += 1
            outcomes.append(Outcome(latency, expected))
            continue
        achieved = poisson_accuracy(response.outputs["u"],
                                    request.inputs["u_exact"])
        agrees = math.isclose(achieved, response.achieved_accuracy,
                              rel_tol=1e-9, abs_tol=1e-9)
        right = (response.bin_target == want_bin
                 and response.fallback == want_fallback)
        mismatch += not agrees
        wrong_bin += not right
        requested = bins[-1] if request.accuracy is None \
            else request.accuracy
        miss = None if unreachable or shed else achieved < requested
        if not shed:
            served_accuracy.setdefault(response.bin_target, []) \
                .append(achieved)
        outcomes.append(Outcome(latency, agrees and right and not designed,
                                miss, shed > 0))
    total = len(responses)
    result.check("accuracy recomputed from outputs and u_exact matches "
                 "achieved_accuracy", mismatch == 0,
                 f"{mismatch} of {total} differ")
    result.check("every bin matches dynamic bin lookup over the "
                 "artifact's bins", wrong_bin == 0,
                 f"{wrong_bin} of {total} differ")
    result.check("fallbacks are exactly the unreachable-target requests",
                 fallbacks == want_fallbacks,
                 f"{fallbacks}, expected {want_fallbacks}")
    result.check("verify failures are exactly the unreachable-target "
                 "verify requests", verify_failures == want_failures,
                 f"{verify_failures}, expected {want_failures}")
    result.check("no other error responses", unexpected == 0,
                 f"{unexpected} of {total}")
    result.attempted += total
    result.failed += unexpected
    return outcomes, served_accuracy


def put_frontier(result: Result, tuned, pools,
                 served_accuracy: dict[float, list[float]]) -> None:
    """Cost of every artifact bin at n=15; bins whose served mean
    accuracy meets their target."""
    costs = []
    for target in tuned.bins:
        config = tuned.bin_configs[target]
        runs = [tuned.program.execute(inputs, 15.0, config).metrics.cost
                for inputs in pools[15][:4]]
        costs.append(sum(runs) / len(runs))
    result.put("frontier_cost", geomean(costs),
               f"{len(costs)} artifact bins at n=15, 4 inputs each")
    met = sum(1 for target, achieved in served_accuracy.items()
              if sum(achieved) / len(achieved) >= target)
    result.put("bins_met", float(met),
               f"of {len(served_accuracy)} served bins, by mean accuracy")


@dataclass
class Sent:
    """One open-loop burst: how it came back and how the generator
    kept to its schedule."""

    responses: list
    latencies: list[float]
    lags: list[float]
    backlog: int
    wall: float


def _completed(done: list[float], index: int, future) -> None:
    done[index] = time.perf_counter()


def open_loop(door, requests, offsets) -> Sent:
    """Submit each request when it is due, whatever came back.

    Latency runs from when a request was *due*, so a stalled generator
    or a full system charges the wait to every later request.
    """
    count = len(requests)
    done = [0.0] * count
    futures, lags = [], []
    start = time.perf_counter() + 0.002
    for index, request in enumerate(requests):
        due = start + offsets[index]
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        lags.append(time.perf_counter() - due)
        future = door.submit(request)
        future.add_done_callback(partial(_completed, done, index))
        futures.append(future)
    backlog = sum(not future.done() for future in futures)
    responses = [future.result(timeout=120.0) for future in futures]
    # result() can return before the done-callbacks have run.
    deadline = time.perf_counter() + 10.0
    while min(done) == 0.0 and time.perf_counter() < deadline:
        time.sleep(0.0005)
    latencies = [done[i] - (start + offsets[i]) for i in range(count)]
    return Sent(responses, latencies, lags, backlog, max(done) - start)


def arrival_offsets(rng: np.random.Generator, count: int, rate: float
                    ) -> np.ndarray:
    """Poisson arrivals at exactly ``rate``: exponential gaps scaled so
    the last request is due at ``(count - 1) / rate``."""
    gaps = rng.exponential(1.0, count)
    gaps[0] = 0.0
    offsets = np.cumsum(gaps)
    return offsets * ((count - 1) / rate / offsets[-1])


@dataclass(frozen=True)
class ServeWorkload:
    """Poisson traffic into a Service loaded from the pinned artifact,
    timed in rounds of ``ROUND`` requests.

    Closed loop: one caller sends a round's requests one after another
    with ``serve_one``.  Open loop: a round is a burst whose requests are
    submitted to the front door when due, at ``rate`` whatever came
    back, and the round ends when the last one is done.
    """

    name: str
    policy: ServicePolicy
    latency_limit_ms: float
    #: Rounds per second of ``--seconds``: sizes the fixed round count.
    rounds_per_s: float
    open_loop: bool = False
    #: Open loop: the absolute arrival rate within a burst.
    rate: float = 0.0

    def pinned(self) -> tuple[str, ...]:
        limit = f"limit {self.latency_limit_ms:g} ms"
        rounds = f"{self.rounds_per_s:g} rounds of {ROUND} per second"
        if not self.open_loop:
            return rounds, limit
        return rounds, f"due at {self.rate:g} req/s", limit

    def run(self, seed: int, seconds: float,
            tracer: Tracer | None = None) -> Result:
        result = Result()
        bins = artifact_bins()
        pools = input_pools(seed)
        setups: list[float] = []
        # Half the set-ups before the timed phase and half after it, so
        # one slow spell of the host cannot hold all of them.
        for _ in range(SERVE_SETUPS // 2 - 1):
            self._set_up(pools, bins, setups)[0].close()
        service, tuned = self._set_up(pools, bins, setups)
        try:
            self._serve(result, service, tuned, bins, pools, seed,
                        seconds, tracer)
        finally:
            service.close()
        while len(setups) < SERVE_SETUPS:
            self._set_up(pools, bins, setups)[0].close()
        result.setups = SERVE_SETUPS
        result.put("setup_s", fast_mean(setups),
                   f"faster half of {SERVE_SETUPS} set-ups")
        put_memory(result)
        return result

    def _set_up(self, pools, bins, setups: list[float]):
        """Load and warm a service; appends its set-up time."""
        speed = SpeedProbe(NUMPY)
        start = time.perf_counter()
        service, tuned = load_service(self.policy)
        try:
            warm = warm_requests(pools, bins)
            if self.open_loop:
                service.serve(warm)
            else:
                for request in warm:
                    service.serve_one(request)
            elapsed = time.perf_counter() - start
            setups.append(elapsed / speed.factor())
        except BaseException:
            service.close()
            raise
        return service, tuned

    # ------------------------------------------------------------------
    def _round(self, service, requests, offsets, speed: SpeedProbe):
        """One round: ``(responses, latencies, wall, backlog, lags)``,
        times as measured; probes ``speed`` once the round is done."""
        if self.open_loop:
            sent = open_loop(service.frontdoor, requests, offsets)
            speed.factor()
            return (sent.responses, sent.latencies, sent.wall,
                    sent.backlog, sent.lags)
        responses, latencies = [], []
        began = time.perf_counter()
        for request in requests:
            sent = time.perf_counter()
            responses.append(service.serve_one(request))
            latencies.append(time.perf_counter() - sent)
        wall = time.perf_counter() - began
        speed.factor()
        return responses, latencies, wall, 0, []

    def _serve(self, result, service, tuned, bins, pools, seed, seconds,
               tracer) -> None:
        rounds = max(10, round(self.rounds_per_s * seconds))
        count = rounds * ROUND
        rng = np.random.default_rng([seed, 1])
        requests = request_mix(rng, pools, count, 0)
        offsets = [arrival_offsets(rng, ROUND, self.rate)
                   if self.open_loop else None for _ in range(rounds)]
        first = service.stats()
        responses, latencies, units, backlogs, lags = [], [], [], [], []
        speed = SpeedProbe(NUMPY)
        for index in range(rounds):
            before = service.stats().executions
            with Clock(tracer) as clock:
                done, timed, wall, backlog, late = self._round(
                    service, requests[index * ROUND:(index + 1) * ROUND],
                    offsets[index], speed)
            result.clocks.append(clock)
            executions = service.stats().executions - before
            factor = speed.factors[-1]
            responses += done
            latencies += [latency / factor for latency in timed]
            units.append((wall / factor, executions))
            backlogs.append(backlog)
            lags += late
        last = service.stats()
        result.notes.append(speed_note("rounds", speed.factors))
        if tracer is not None:
            tracer.phase = "check"
        outcomes, served_accuracy = judge(result, bins, requests,
                                          responses, latencies)
        if self.open_loop:
            submitted = last.submitted - first.submitted
            settled = ((last.completed - first.completed)
                       + (last.rejected - first.rejected)
                       + (last.expired - first.expired))
            result.check("submitted == completed + rejected + expired",
                         submitted == settled == count,
                         f"{submitted} submitted, {settled} settled, "
                         f"{count} sent")
            result.layer.update({
                "serving.frontdoor.rejected": last.rejected - first.rejected,
                "serving.frontdoor.expired": last.expired - first.expired,
                "serving.frontdoor.degraded": last.degraded - first.degraded,
                "loadgen.lag_tail_ms": 1e3 * tail_percentile(lags)[1],
                "loadgen.backlog_end": sum(backlogs) / rounds,
            })
        else:
            served = last.requests - first.requests
            result.check("engine counted every request", served == count,
                         f"{served} of {count}")
        fast = fastest(range(rounds), key=lambda index: units[index][0])
        wall = sum(units[index][0] for index in fast)
        scope = f"faster {len(fast)} of {rounds} rounds of {ROUND}"
        result.put("wall_s", wall / len(fast),
                   scope + (", first due to last done"
                            if self.open_loop else ""))
        executions = sum(units[index][1] for index in fast)
        result.put("trials_per_s", executions / wall,
                   f"{executions} program executions in the {scope}")
        timed = [o for index in fast
                 for o in outcomes[index * ROUND:(index + 1) * ROUND]]
        put_requests(result, timed, wall, f"{len(timed)} requests in the "
                     f"{scope}", outcomes, self.latency_limit_ms / 1e3)
        put_frontier(result, tuned, pools, served_accuracy)
        if tracer is not None:
            tracer.phase = "setup"
        result.reference = wall / len(fast)


SERVE_OPEN = ServeWorkload(
    name="serve-open",
    policy=ServicePolicy(backend="async:2x1", shard_backend="serial"),
    latency_limit_ms=100.0, rounds_per_s=4.0, open_loop=True, rate=4000.0)

SERVE_CLOSED = ServeWorkload(
    name="serve-closed", policy=ServicePolicy(),
    latency_limit_ms=60.0, rounds_per_s=4.0)

WORKLOADS = {workload.name: workload for workload in
             (TUNE_BINPACKING, SERVE_OPEN, SERVE_CLOSED)}
