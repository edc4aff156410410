"""Golden tune pins: four small tunes, pinned decision by decision.

Each case pins the trial count, the number of comparisons, every tuned
bin's configuration digest and the frontier (exact ``repr`` of each
float).  The values were recorded before the comparator read memoized
per-candidate statistics and before ``ctx.rng`` was derived lazily, and
must not be edited: a change to the comparison heuristic, the
statistics it reads or the stream a rule draws from moves one of them.
("Session ≡ legacy loop" cannot catch that, because both sides share
the comparator.)

The digests were taken when a flat tunable (``cutoff()``, ``switch()``,
``precision()``, the synthesized loop order) was stored as a bare
``{"kind": "value"}`` entry; :func:`pinned_digest` writes such a
tunable's tree with no levels back in that form before hashing, so the
recorded digests still pin every tuned value.
"""

from __future__ import annotations

import hashlib
import json

from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import compile_program
from repro.suite import get_benchmark

from tests.conftest import approxmean_inputs, make_approxmean_transform

# The tune-binpacking workload's settings (perfbench/workloads.py),
# every knob spelled out, with its tune_seed of 5.
BINPACKING_SETTINGS = dict(
    max_input_size=128.0, min_input_size=8.0,
    input_sizes=(8.0, 32.0, 128.0), rounds_per_size=1,
    mutation_attempts=16, k_per_bin=2, min_trials=3, max_trials=10,
    objective="cost", initial_random=2, accuracy_confidence=None,
    require_targets="warn", guided_max_evaluations=8, guided_factor=2.0,
    max_tree_levels=4, keep_most_accurate=True, copy_parent_results=True,
    include_meta_mutators=True, lognormal_scaling=True,
    use_guided_mutation=True, prefer_root_mutators=True,
    root_mutator_weight=4.0, seed=5)


def pinned_digest(config, space) -> str:
    """:attr:`Configuration.digest` with flat tunables as bare values."""
    payload = config.to_json()
    for param in space:
        if param.flat:
            (value,) = config[param.name].leaves
            payload[param.name] = {"kind": "value", "value": value}
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def fingerprint(tuner: Autotuner) -> dict:
    result = tuner.tune()
    return {
        "trials_run": result.trials_run,
        "comparisons": tuner.comparator.comparisons,
        "digests": {target: pinned_digest(candidate.config,
                                          tuner.program.space)
                    for target, candidate
                    in sorted(result.best_per_bin.items())},
        "frontier": [tuple(repr(value) for value in row)
                     for row in result.frontier()],
    }


def benchmark_tuner(name: str, settings: TunerSettings,
                    base_seed: int) -> Autotuner:
    spec = get_benchmark(name)
    program, _ = spec.compile()
    harness = ProgramTestHarness(program, spec.generate,
                                 base_seed=base_seed,
                                 cost_limit=spec.cost_limit)
    return Autotuner(program, harness, settings)


def test_binpacking_golden():
    tuner = benchmark_tuner("binpacking",
                            TunerSettings(**BINPACKING_SETTINGS), 5)
    assert fingerprint(tuner) == BINPACKING_GOLDEN


def test_noisy_approxmean_golden():
    """Noise forces adaptive top-ups; the rules draw from ``ctx.rng``."""
    program, _ = compile_program(make_approxmean_transform())
    harness = ProgramTestHarness(program, approxmean_inputs, base_seed=3,
                                 noise=0.2)
    settings = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=2,
                             mutation_attempts=6, min_trials=3,
                             max_trials=12, seed=7,
                             accuracy_confidence=0.9)
    assert fingerprint(Autotuner(program, harness, settings)) == \
        APPROXMEAN_GOLDEN


def test_clustering_golden():
    """Clustering's seeding and k-means rules draw from ``ctx.rng``."""
    settings = TunerSettings(input_sizes=(16.0, 64.0), rounds_per_size=1,
                             mutation_attempts=6, min_trials=2,
                             max_trials=5, seed=0, accuracy_confidence=None)
    assert fingerprint(benchmark_tuner("clustering", settings, 4)) == \
        CLUSTERING_GOLDEN


def test_poisson_golden():
    """Poisson tunes the omega cutoffs and the working precision."""
    settings = TunerSettings(input_sizes=(7.0, 15.0), rounds_per_size=1,
                             mutation_attempts=16, min_trials=2,
                             max_trials=4, seed=3, initial_random=2,
                             accuracy_confidence=None)
    assert fingerprint(benchmark_tuner("poisson", settings, 5)) == \
        POISSON_GOLDEN


# Recorded before the change; see the module docstring.
BINPACKING_GOLDEN = {
    "trials_run": 323,
    "comparisons": 267,
    "digests": {
        1.1: '406ea98a9411793f1fcc5cbde315db06',
        1.2: '2759fc4ec9a952d59f32e3538fb49bf7',
        1.3: '2759fc4ec9a952d59f32e3538fb49bf7',
        1.4: '758828eb0cbc0cd12444284dad6d1735',
        1.5: '758828eb0cbc0cd12444284dad6d1735',
    },
    "frontier": [
        ('1.5', '1.3285314125650258', '128.0'),
        ('1.4', '1.3285314125650258', '128.0'),
        ('1.3', '1.1208483393357342', '1700.0'),
        ('1.2', '1.1208483393357342', '1700.0'),
        ('1.1', '1.0609306086070796', '2789.8'),
    ],
}

APPROXMEAN_GOLDEN = {
    "trials_run": 276,
    "comparisons": 119,
    "digests": {
        0.5: '721fd6180c83b4542165751147ed070c',
        0.9: '721fd6180c83b4542165751147ed070c',
        0.99: '64219a0b2bac50240400dabca108a0c1',
    },
    "frontier": [
        ('0.5', '0.9397033189414024', '1.7954347742398757'),
        ('0.9', '0.9397033189414024', '1.7954347742398757'),
        ('0.99', '1.0', '118.87564234727596'),
    ],
}

CLUSTERING_GOLDEN = {
    "trials_run": 48,
    "comparisons": 74,
    "digests": {
        0.1: '3f9eb8ef6ad618ada1bab97c706bda2d',
        0.2: '3f9eb8ef6ad618ada1bab97c706bda2d',
        0.5: '3f9eb8ef6ad618ada1bab97c706bda2d',
        0.75: '3f9eb8ef6ad618ada1bab97c706bda2d',
        0.95: '3f9eb8ef6ad618ada1bab97c706bda2d',
    },
    "frontier": [
        ('0.1', '2.950101663424579', '4224.0'),
        ('0.2', '2.950101663424579', '4224.0'),
        ('0.5', '2.950101663424579', '4224.0'),
        ('0.75', '2.950101663424579', '4224.0'),
        ('0.95', '2.950101663424579', '4224.0'),
    ],
}

POISSON_GOLDEN = {
    "trials_run": 87,
    "comparisons": 119,
    "digests": {
        1.0: '39c8ab6449e84023a676553c23c35d47',
        3.0: 'f7e892dac34ee7aa18607c3ad21d4650',
        5.0: '4522d35ed14024f53c6e64b9b83f02cd',
        7.0: '245c26a2532df794d4b939f4807dfc9a',
        9.0: '245c26a2532df794d4b939f4807dfc9a',
    },
    "frontier": [
        ('1.0', '1.8186693907649754', '17348.0'),
        ('3.0', '3.0605275069780213', '27496.0'),
        ('5.0', '6.301638942733695', '348885.0'),
        ('7.0', '15.55194777113201', '3699000.0'),
        ('9.0', '15.55194777113201', '3699000.0'),
    ],
}
