"""Ablations of the autotuner's design choices (DESIGN.md index).

Claims from Section 5, each measured under identical budgets:

1. adaptive trial counts (3..25, t-test driven) vs a fixed count
   (min == max): adaptivity spends fewer trials under low noise;
2. log-normal scaling mutators vs uniform resampling (the paper
   reports "much faster convergence" for log-normal on size-like
   values);
3. guided mutation on vs off: without it accuracy targets are met
   later or not at all;
4. the evolutionary search against plain random sampling at the
   tune's own trial count (report-only; see
   ``test_random_search_baseline``).
"""

from __future__ import annotations

import json

import numpy as np
from conftest import run_once

from repro.autotuner import (
    Autotuner,
    Candidate,
    Comparator,
    ProgramTestHarness,
    TunerSettings,
)
from repro.autotuner.pruning import k_fastest
from repro.compiler.compile import compile_program
from repro.experiments.common import ExperimentSettings, tune_benchmark
from repro.rng import generator_for
from repro.suite import get_benchmark

SIZES = (16.0, 64.0, 256.0)


def tune(benchmark_name="binpacking", *, noise=0.0, seed=21, **overrides):
    spec = get_benchmark(benchmark_name)
    program, _ = spec.compile()
    harness = ProgramTestHarness(program, spec.generate, base_seed=7,
                                 noise=noise,
                                 cost_limit=spec.cost_limit)
    defaults = dict(input_sizes=SIZES, rounds_per_size=2,
                    mutation_attempts=8, min_trials=3, max_trials=12,
                    seed=seed, initial_random=2,
                    accuracy_confidence=None)
    defaults.update(overrides)
    result = Autotuner(program, harness, TunerSettings(**defaults)).tune()
    return harness, result


def test_ablation_adaptive_testing(benchmark):
    def run():
        adaptive_harness, adaptive = tune()
        fixed_harness, fixed = tune(min_trials=12, max_trials=12)
        return (adaptive_harness.trials_run, fixed_harness.trials_run,
                adaptive.unmet_bins, fixed.unmet_bins)

    adaptive_trials, fixed_trials, adaptive_unmet, fixed_unmet = \
        run_once(benchmark, run)
    print(f"\nadaptive trials={adaptive_trials} (unmet {adaptive_unmet}) "
          f"vs fixed trials={fixed_trials} (unmet {fixed_unmet})")
    assert adaptive_trials < fixed_trials


def test_ablation_noise_inflates_trials(benchmark):
    """The mouse-wiggle anecdote at tuner scale."""
    def run():
        quiet_harness, _ = tune(noise=0.0)
        noisy_harness, _ = tune(noise=0.4)
        return quiet_harness.trials_run, noisy_harness.trials_run

    quiet, noisy = run_once(benchmark, run)
    print(f"\nquiet trials={quiet} noisy trials={noisy}")
    assert noisy > quiet


def test_ablation_lognormal_vs_uniform_scaling(benchmark):
    """Compare converged frontier cost under equal budgets.

    Uses the clustering benchmark, whose k accuracy variable spans
    [1, 4096] — exactly the size-like value the log-normal argument
    is about.
    """
    def run():
        _, lognormal = tune("clustering", lognormal_scaling=True)
        _, uniform = tune("clustering", lognormal_scaling=False)

        def frontier_cost(result):
            rows = result.frontier()
            return sum(cost for _, _, cost in rows) / max(len(rows), 1)

        return frontier_cost(lognormal), frontier_cost(uniform), \
            len(lognormal.best_per_bin), len(uniform.best_per_bin)

    log_cost, uni_cost, log_bins, uni_bins = run_once(benchmark, run)
    print(f"\nlognormal: mean frontier cost {log_cost:.0f} over "
          f"{log_bins} bins; uniform: {uni_cost:.0f} over {uni_bins}")
    # Both must train something; log-normal should not be worse on
    # bins covered (weak assertion: comparable or better coverage).
    assert log_bins >= uni_bins


def test_ablation_guided_mutation(benchmark):
    """Guided mutation rescues unmet accuracy targets (Poisson)."""
    def run():
        _, with_guided = tune("poisson", use_guided_mutation=True,
                              input_sizes=(3.0, 7.0, 15.0),
                              mutation_attempts=4, min_trials=1,
                              max_trials=3)
        _, without = tune("poisson", use_guided_mutation=False,
                          input_sizes=(3.0, 7.0, 15.0),
                          mutation_attempts=4, min_trials=1,
                          max_trials=3)
        return with_guided.unmet_bins, without.unmet_bins

    with_unmet, without_unmet = run_once(benchmark, run)
    print(f"\nguided on: unmet {with_unmet}; guided off: unmet "
          f"{without_unmet}")
    assert len(with_unmet) <= len(without_unmet)


def test_ablation_root_mutator_preference(benchmark):
    """This repo's search refinement, not the paper's.

    The paper picks mutators uniformly at random; weighting selection
    toward the root instance's parameters (``MutatorPool.prefer``),
    which affect every execution, should cover at least as many
    accuracy bins of the recursive Poisson benchmark as uniform
    selection, at the same budget.
    """
    def run():
        _, preferred = tune("poisson", prefer_root_mutators=True,
                            input_sizes=(3.0, 7.0, 15.0),
                            mutation_attempts=6, min_trials=1,
                            max_trials=3)
        _, uniform = tune("poisson", prefer_root_mutators=False,
                          input_sizes=(3.0, 7.0, 15.0),
                          mutation_attempts=6, min_trials=1,
                          max_trials=3)
        return (len(preferred.best_per_bin), len(uniform.best_per_bin),
                preferred.trials_run, uniform.trials_run)

    preferred_bins, uniform_bins, preferred_trials, uniform_trials = \
        run_once(benchmark, run)
    print(f"\npreferred: {preferred_bins} bins ({preferred_trials} "
          f"trials); uniform: {uniform_bins} bins ({uniform_trials} "
          f"trials)")
    assert preferred_bins >= uniform_bins


def test_ablation_mixed_precision_frontier(benchmark):
    """The precision() dimension pays its way.

    Tuning the preconditioner benchmark over {float64, float32}
    discovers per-bin configurations that meet the same statistical
    accuracy guarantees (Section 3.3, 95% one-sided bound) at lower
    cost than the best configurations a float64-only space can reach
    under an identical budget — float32 halves the charged cost per CG
    iteration while its ~7 resolvable orders cover every declared bin.
    """

    def tune_precision(choices):
        spec = get_benchmark("preconditioner")
        program, _ = compile_program(
            *spec.build(precision_choices=choices))
        harness = ProgramTestHarness(program, spec.generate, base_seed=7,
                                     cost_limit=spec.cost_limit)
        settings = TunerSettings(input_sizes=(64.0, 256.0),
                                 rounds_per_size=2, mutation_attempts=12,
                                 min_trials=3, max_trials=12, seed=21,
                                 initial_random=4,
                                 accuracy_confidence=None)
        return Autotuner(program, harness, settings).tune()

    def run():
        # Diverging float32 CG iterates overflow to inf during random
        # exploration; the tuner discards those trials, so the numpy
        # overflow warnings are expected noise.
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = tune_precision(("float64", "float32"))
            control = tune_precision(("float64",))
        n = 256.0
        control_cost = {target: cost
                        for target, _, cost in control.frontier(n)}
        guarantees = mixed.bin_guarantees()
        wins = []
        for target, _, cost in mixed.frontier(n):
            candidate = mixed.best_per_bin[target]
            precision = candidate.config.lookup(
                "preconditioner@main.precision", n)
            guarantee = guarantees.get(target)
            if (precision == "float32" and target in control_cost
                    and cost < control_cost[target]
                    and guarantee is not None and guarantee.holds):
                wins.append((target, cost, control_cost[target]))
        return wins

    wins = run_once(benchmark, run)
    row = {"bench": "ablation", "ablation": "mixed_precision",
           "benchmark": "preconditioner", "bins_won": len(wins),
           "wins": [{"bin": target, "mixed_cost": mixed_cost,
                     "float64_cost": control_cost}
                    for target, mixed_cost, control_cost in wins]}
    print("\nBENCH_JSON " + json.dumps(row, sort_keys=True))
    assert wins, (
        "mixed-precision tuning found no bin where a float32 config "
        "meets the accuracy guarantee at lower cost than the best "
        "float64-only config")


PROGRAMS = ("binpacking", "clustering", "helmholtz", "imagecompression",
            "poisson", "preconditioner")


def random_search(spec, program, settings: TunerSettings, budget: int):
    """Per-bin winner cost of random sampling at ``budget`` trials.

    Draws ``program.random_config`` configurations, each tested at the
    largest training size with the tune's minimum trial count, until
    ``budget`` trials are spent; then picks each bin's winner by the
    tuner's own final rule (Section 5.5): the fastest candidate, by
    the adaptive comparator, among those meeting the bin.  Returns
    ``({bin: mean cost}, trials run)``; selection top-ups may take the
    trial count a little past the budget.
    """
    n = settings.sizes()[-1]
    harness = ProgramTestHarness(program, spec.generate,
                                 base_seed=settings.seed,
                                 cost_limit=spec.cost_limit)
    comparator = Comparator(harness, settings.comparison_settings())
    rng = generator_for(settings.seed, "random-search")
    drawn = []
    while harness.trials_run < budget:
        candidate = Candidate(program.random_config(rng))
        harness.ensure_trials(candidate, n, settings.min_trials)
        drawn.append(candidate)
    costs = {}
    for target in program.root_transform.accuracy_bins:
        eligible = [c for c in drawn
                    if c.meets_accuracy(n, target, harness.metric,
                                        settings.accuracy_confidence)]
        winner = k_fastest(eligible, 1, comparator, n)
        if winner:
            costs[target] = winner[0].results.mean_objective(n)
    return costs, harness.trials_run


def _spread(values) -> str:
    met = sorted(v for v in values if v is not None)
    if not met:
        return "-"
    return f"{float(np.median(met)):.4g} [{met[0]:.4g}, {met[-1]:.4g}]"


def test_random_search_baseline(benchmark):
    """Tuned against random search, per bin, at equal trials.

    Report-only: six suite programs over seeds 0-4 at quick sizing.
    For each bin, the median winner cost (at the largest training
    size) over the seeds that met it, with its range, and how many
    seeds left it unmet.  Where random matches the tuner, the search
    machinery is not what makes that program's frontier.
    """
    def run():
        rows = []
        for name in PROGRAMS:
            for seed in range(5):
                with np.errstate(all="ignore"):
                    spec, program, result = tune_benchmark(
                        name, ExperimentSettings(seed=seed, quick=True))
                    n = result.sizes[-1]
                    random, random_trials = random_search(
                        spec, program, result.settings,
                        result.trials_run)
                for target in result.bins:
                    best = result.best_per_bin.get(target)
                    rows.append({
                        "program": name, "seed": seed, "bin": target,
                        "tuned": (best.results.mean_objective(n)
                                  if best is not None else None),
                        "random": random.get(target),
                        "tuned_trials": result.trials_run,
                        "random_trials": random_trials})
        return rows

    rows = run_once(benchmark, run)
    print("\nprogram           bin     tuned median [range]        "
          "random median [range]       unmet t/r  trials t/r")
    keys = dict.fromkeys((row["program"], row["bin"]) for row in rows)
    for name, target in keys:
        cell = [row for row in rows
                if (row["program"], row["bin"]) == (name, target)]
        tuned = [row["tuned"] for row in cell]
        random = [row["random"] for row in cell]
        trials = (sum(row["tuned_trials"] for row in cell),
                  sum(row["random_trials"] for row in cell))
        print(f"{name:17s} {target:<7g} {_spread(tuned):27s} "
              f"{_spread(random):27s} {tuned.count(None)}/"
              f"{random.count(None):<7d} {trials[0]}/{trials[1]}")
    print("BENCH_JSON " + json.dumps(
        {"bench": "ablation", "ablation": "random_search",
         "rows": rows}, sort_keys=True))
