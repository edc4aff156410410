"""Guided mutation (Section 5.5.3).

"Infrequently, the random mutation process may not produce any
candidate algorithms that meet the accuracy requirements given by the
user. ... In this case we use a guided mutation process ... possible
because the training information file contains hints as to which
configuration values affect accuracy.  These accuracy variables are
things such as the iteration counts in for_enough loops.  The guided
mutation simply does hill climbing on the accuracy variables."
"""

from __future__ import annotations

from typing import Sequence

from repro.autotuner.candidate import Candidate
from repro.autotuner.testing import ProgramTestHarness
from repro.config.parameters import ParameterSpace, SizeValueParam
from repro.lang.metrics import AccuracyMetric

__all__ = ["guided_mutation"]


def _candidate_moves(base: Candidate, param: SizeValueParam, n: float,
                     factor: float) -> list[float]:
    """Hill-climbing steps for one accuracy variable.

    The static-analysis direction hint restricts the search to one
    direction when known; unknown-direction variables try both.
    """
    current = float(base.config.lookup(param.name, n))
    directions = ([param.accuracy_direction] if param.accuracy_direction
                  else [+1, -1])
    moves = []
    for direction in directions:
        if param.scaling == "lognormal":
            value = param.coerce(current * (factor ** direction))
            if value == current and param.integer:
                value = param.coerce(current + direction)
        else:
            span = max(1.0, (param.hi - param.lo) * 0.25)
            value = param.coerce(current + direction * span)
        if value != current:
            moves.append(value)
    return moves


def guided_mutation(population: list[Candidate],
                    harness: ProgramTestHarness,
                    space: ParameterSpace,
                    unmet_targets: Sequence[float],
                    n: float,
                    metric: AccuracyMetric,
                    *,
                    min_trials: int = 3,
                    max_evaluations: int = 24,
                    factor: float = 2.0,
                    accuracy_confidence: float | None = None
                    ) -> list[Candidate]:
    """Hill-climb accuracy variables toward unmet accuracy targets.

    Starts from the most accurate candidate in the population and
    greedily applies the single accuracy-variable move that improves
    mean accuracy most, until every target in ``unmet_targets`` is met,
    no move improves, or the evaluation budget is exhausted.  Returns
    the list of candidates added to the population.
    """
    if not population or not unmet_targets:
        return []
    accuracy_variables = space.accuracy_variables()
    if not accuracy_variables:
        return []

    scored = [c for c in population if c.results.accuracies(n)]
    if not scored:
        return []
    base = max(scored,
               key=lambda c: metric.sort_key(c.results.mean_accuracy(n)))
    added: list[Candidate] = []
    evaluations = 0

    def targets_met(candidate: Candidate) -> bool:
        return all(candidate.meets_accuracy(n, t, metric,
                                            accuracy_confidence)
                   for t in unmet_targets)

    current_factor = factor
    max_factor = factor ** 4
    while evaluations < max_evaluations and not targets_met(base):
        # Build every move of this hill-climbing sweep, truncate to the
        # remaining evaluation budget, then run the sweep's initial
        # trials as one backend batch.
        moves = [(param, value) for param in accuracy_variables
                 for value in _candidate_moves(base, param, n,
                                               current_factor)]
        sweep: list[Candidate] = []
        for param, value in moves[:max_evaluations - evaluations]:
            config = base.config.with_entry(
                param.name, base.config[param.name].set_leaf_for_size(
                    n, value))
            sweep.append(Candidate(config, parent=base,
                                   step=f"guided:{param.name}"))
        harness.ensure_trials_batch(
            [(child, n, min_trials) for child in sweep])
        evaluations += len(sweep)
        best_child: Candidate | None = None
        for child in sweep:
            if child.results.any_failed(n):
                continue
            child_acc = child.results.mean_accuracy(n)
            if best_child is None or metric.better(
                    child_acc, best_child.results.mean_accuracy(n)):
                best_child = child
        if best_child is None:
            break
        base_acc = base.results.mean_accuracy(n)
        if not metric.better(best_child.results.mean_accuracy(n), base_acc):
            # No move improved.  Small steps can stall on measurement
            # plateaus (e.g. one extra trial sample barely moving the
            # mean); escalate the step size before giving up.
            if current_factor < max_factor:
                current_factor *= factor
                continue
            break  # a genuine local optimum
        current_factor = factor
        population.append(best_child)
        added.append(best_child)
        base = best_child
    return added
