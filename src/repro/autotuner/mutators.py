"""Mutator functions (Section 5.4).

A mutator creates a new algorithm configuration from an existing one;
its signature in the paper is ``Configuration x N -> Configuration``
where N is the current training input size.  The pool of mutators is
generated fully automatically from the static analysis information
(here: the :class:`~repro.config.parameters.ParameterSpace`).  The four
categories of the paper are implemented:

* **decision tree manipulation** — add a level (cutoff initially at
  ``3N/4``, preserving behaviour for smaller inputs), remove a level,
  or change the algorithm in the leaf governing the current size;
* **log-normal random scaling** — scale numeric leaves (accuracy
  variables, ``cutoff()`` values) and cutoffs inside decision trees by
  ``exp(Normal(0, 1))``;
* **uniform random** — replace a choice leaf (algorithmic choices,
  switch values, precisions) by a uniform draw from its other values;
* **meta** — apply several random mutators at once (larger jumps) or
  undo a candidate's previous mutation.

Every tunable is a decision tree, so every base mutator is a tree
mutator.  A flat tunable (``cutoff()``, ``switch()``, ``precision()``,
the synthesized loop order) gets only the change-leaf mutator: its tree
keeps no levels.

The paper's mutators also copy their input candidate's results for
input sizes a mutation provably left unchanged.  Here the trial cache
replays those results exactly, so no mutator reports what it left
unchanged (DESIGN.md, substitution 6).
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.autotuner.candidate import Candidate
from repro.config.configuration import Configuration
from repro.config.parameters import (
    ChoiceSiteParam,
    ParameterSpace,
    SizeValueParam,
)
from repro.errors import ConfigError

__all__ = ["MutationFailed", "Mutator", "ConfigMutator", "MutatorPool"]


class MutationFailed(Exception):
    """A mutator could not produce a changed configuration.

    Internal control flow: the random-mutation phase simply skips the
    attempt, exactly as a no-op mutation would be rejected by the
    child-vs-parent comparison anyway.
    """


class Mutator(ABC):
    """Creates a new configuration by changing an existing one."""

    def __init__(self, name: str):
        self.name = name

    def applies(self, candidate: Candidate, n: float) -> bool:
        """Whether this mutator is currently legal for ``candidate``.

        Dynamic applicability implements the paper's enabling/disabling
        of mutators: e.g. cutoff-scaling mutators only become available
        once an add-level mutation created a cutoff.
        """
        return True

    @abstractmethod
    def mutate(self, candidate: Candidate, n: float,
               rng: np.random.Generator) -> Configuration:
        """Return the mutated configuration."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ConfigMutator(Mutator):
    """A mutator that reads only its candidate's configuration.

    Such a mutator also applies to a bare configuration, which is how
    :class:`CompoundMutator` chains several without a candidate per
    step.
    """

    def applies(self, candidate, n):
        return self.applies_to(candidate.config, n)

    def mutate(self, candidate, n, rng):
        return self.mutate_config(candidate.config, n, rng)

    def applies_to(self, config: Configuration, n: float) -> bool:
        return True

    @abstractmethod
    def mutate_config(self, config: Configuration, n: float,
                      rng: np.random.Generator) -> Configuration:
        """Return the mutated configuration."""


# ----------------------------------------------------------------------
# Leaf-value samplers
# ----------------------------------------------------------------------
def _different_choice(param: ChoiceSiteParam, current,
                      rng: np.random.Generator):
    alternatives = [c for c in param.choices if c != current]
    if not alternatives:
        raise MutationFailed(f"{param.name} has no other choice")
    return alternatives[int(rng.integers(0, len(alternatives)))]


def _lognormal_scaled(param: SizeValueParam, current: float,
                      rng: np.random.Generator) -> float:
    factor = math.exp(rng.normal(0.0, 1.0))
    value = param.coerce(current * factor)
    if value == current and param.integer:
        # Integer rounding swallowed a small scale; nudge by one.
        value = param.coerce(current + (1.0 if factor > 1.0 else -1.0))
    if value == current:
        raise MutationFailed(f"scaling left {param.name} unchanged")
    return value


def _uniform_resample(param: SizeValueParam, current: float,
                      rng: np.random.Generator) -> float:
    for _ in range(8):
        value = param.coerce(rng.uniform(param.lo, param.hi))
        if value != current:
            return value
    raise MutationFailed(f"uniform resample left {param.name} unchanged")


def _sample_new_leaf(param, current, rng: np.random.Generator):
    """Sample a new leaf value appropriate for the parameter kind."""
    if isinstance(param, ChoiceSiteParam):
        return _different_choice(param, current, rng)
    if param.scaling == "lognormal":
        return _lognormal_scaled(param, float(current), rng)
    return _uniform_resample(param, float(current), rng)


# ----------------------------------------------------------------------
# Decision-tree manipulation mutators
# ----------------------------------------------------------------------
class TreeChangeLeafMutator(ConfigMutator):
    """Change the tree leaf governing the current input size."""

    def __init__(self, param):
        super().__init__(f"tree.change:{param.name}")
        self.param = param

    def mutate_config(self, config, n, rng):
        tree = config[self.param.name]
        new_value = _sample_new_leaf(self.param, tree.lookup(n), rng)
        return config.with_entry(self.param.name,
                                 tree.set_leaf_for_size(n, new_value))


class TreeAddLevelMutator(ConfigMutator):
    """Add a decision-tree level with the cutoff initially at 3N/4.

    "This leaves the behavior for smaller inputs the same, while
    changing the behavior for the current set of inputs being tested."
    """

    def __init__(self, param, max_levels: int = 4):
        super().__init__(f"tree.addlevel:{param.name}")
        self.param = param
        self.max_levels = max_levels

    def applies_to(self, config, n):
        tree = config[self.param.name]
        cutoff = 3.0 * n / 4.0
        return (tree.num_levels < self.max_levels
                and cutoff >= 1.0
                and cutoff not in tree.cutoffs)

    def mutate_config(self, config, n, rng):
        tree = config[self.param.name]
        cutoff = 3.0 * n / 4.0
        if cutoff < 1.0 or cutoff in tree.cutoffs:
            raise MutationFailed(f"cannot place cutoff at {cutoff}")
        if tree.num_levels >= self.max_levels:
            raise MutationFailed("tree at maximum depth")
        split = tree.add_level(cutoff)
        new_value = _sample_new_leaf(self.param, split.lookup(n), rng)
        return config.with_entry(self.param.name,
                                 split.set_leaf_for_size(n, new_value))


class TreeRemoveLevelMutator(ConfigMutator):
    """Remove a random decision-tree level."""

    def __init__(self, param):
        super().__init__(f"tree.removelevel:{param.name}")
        self.param = param

    def applies_to(self, config, n):
        return config[self.param.name].num_levels > 0

    def mutate_config(self, config, n, rng):
        tree = config[self.param.name]
        if tree.num_levels == 0:
            raise MutationFailed("tree has no levels to remove")
        index = int(rng.integers(0, tree.num_levels))
        return config.with_entry(self.param.name, tree.remove_level(index))


class TreeScaleCutoffMutator(ConfigMutator):
    """Log-normally scale an active cutoff inside a decision tree.

    "a log-normal random scaling mutator is introduced for each active
    cutoff value in the decision tree."
    """

    def __init__(self, param):
        super().__init__(f"tree.scalecutoff:{param.name}")
        self.param = param

    def applies_to(self, config, n):
        return config[self.param.name].num_levels > 0

    def mutate_config(self, config, n, rng):
        tree = config[self.param.name]
        if tree.num_levels == 0:
            raise MutationFailed("tree has no cutoffs")
        index = int(rng.integers(0, tree.num_levels))
        factor = math.exp(rng.normal(0.0, 1.0))
        try:
            new_tree = tree.scale_cutoff(index, factor)
        except ConfigError as exc:
            raise MutationFailed(str(exc)) from None
        if new_tree == tree:
            raise MutationFailed("cutoff scaling had no effect")
        return config.with_entry(self.param.name, new_tree)


# ----------------------------------------------------------------------
# Meta mutators
# ----------------------------------------------------------------------
class CompoundMutator(ConfigMutator):
    """Apply several random base mutators at once (a larger jump)."""

    def __init__(self, base_mutators: Sequence[ConfigMutator],
                 min_applications: int = 2, max_applications: int = 4):
        super().__init__("meta.compound")
        self.base_mutators = list(base_mutators)
        self.min_applications = min_applications
        self.max_applications = max_applications

    def applies_to(self, config, n):
        return any(m.applies_to(config, n) for m in self.base_mutators)

    def mutate_config(self, config, n, rng):
        count = int(rng.integers(self.min_applications,
                                 self.max_applications + 1))
        applied = 0
        for _ in range(count * 4):  # allow retries on failed sub-mutations
            if applied >= count:
                break
            options = [m for m in self.base_mutators
                       if m.applies_to(config, n)]
            if not options:
                break
            mutator = options[int(rng.integers(0, len(options)))]
            try:
                config = mutator.mutate_config(config, n, rng)
            except MutationFailed:
                continue
            applied += 1
        if applied == 0:
            raise MutationFailed("no sub-mutation succeeded")
        return config


class UndoMutator(Mutator):
    """Undo the mutation that made a candidate: its parent's config.

    Every mutation changes some entries of its parent's configuration
    and nothing else, so restoring them gives the parent's
    configuration back exactly; the candidate keeps it as
    ``parent_config``.
    """

    def __init__(self):
        super().__init__("meta.undo")

    def applies(self, candidate, n):
        return candidate.parent_config is not None

    def mutate(self, candidate, n, rng):
        if candidate.parent_config is None:
            raise MutationFailed("candidate has no mutation to undo")
        return candidate.parent_config


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class MutatorPool:
    """The automatically generated set of mutators for a program.

    Selection is random but optionally *weighted* toward a key prefix
    (set via :meth:`prefer`): the tuner prefers mutators that touch the
    root instance's parameters, which affect every execution, over
    sub-instance parameters that only matter when recursion reaches
    them.  The paper specifies only that mutators are picked randomly;
    the weighting is an engineering refinement that keeps programs with
    many per-bin instances searchable at small budgets.
    """

    def __init__(self, mutators: Iterable[Mutator]):
        # An empty pool is legal: a transform with a single rule and no
        # tunables has nothing to mutate (random() then returns None and
        # the tuner's random-mutation phase becomes a no-op).
        self.mutators = list(mutators)
        self._preferred_prefix: str | None = None
        self._preference_weight: float = 1.0

    def prefer(self, prefix: str, weight: float = 4.0) -> None:
        """Weight mutators whose target key starts with ``prefix``."""
        if weight <= 0:
            raise ConfigError(f"preference weight must be positive: "
                              f"{weight}")
        self._preferred_prefix = prefix
        self._preference_weight = weight

    def _weight(self, mutator: Mutator) -> float:
        if self._preferred_prefix is None:
            return 1.0
        param = getattr(mutator, "param", None)
        if param is None:  # meta mutators keep base weight
            return 1.0
        if param.name.startswith(self._preferred_prefix):
            return self._preference_weight
        return 1.0

    @classmethod
    def from_space(cls, space: ParameterSpace, *,
                   max_tree_levels: int = 4,
                   include_meta: bool = True,
                   lognormal_scaling: bool = True) -> "MutatorPool":
        """Generate the pool from static analysis information.

        ``lognormal_scaling=False`` replaces every log-normal value
        mutator, ``cutoff()`` values included, by a uniform resample
        (used by the scaling-strategy ablation benchmark).
        """
        base: list[ConfigMutator] = []
        for param in space:
            if isinstance(param, ChoiceSiteParam):
                if param.num_choices < 2:
                    continue
            else:
                if param.lo == param.hi:
                    continue
                if not lognormal_scaling and param.scaling == "lognormal":
                    param = dataclasses.replace(param, scaling="uniform")
            base.append(TreeChangeLeafMutator(param))
            if not param.flat:
                base.append(TreeAddLevelMutator(param, max_tree_levels))
                base.append(TreeRemoveLevelMutator(param))
                base.append(TreeScaleCutoffMutator(param))
        mutators = list(base)
        if include_meta and base:
            mutators.append(CompoundMutator(base))
            mutators.append(UndoMutator())
        return cls(mutators)

    def applicable(self, candidate: Candidate, n: float) -> list[Mutator]:
        return [m for m in self.mutators if m.applies(candidate, n)]

    def random(self, candidate: Candidate, n: float,
               rng: np.random.Generator) -> Mutator | None:
        """A weighted random pick among the applicable mutators.

        Draws exactly as ``rng.choice(len(options), p=weights /
        weights.sum())`` does: one ``rng.random()`` searched
        (``side="right"``) in the normalised cumulative weights,
        without ``choice``'s argument checks.
        """
        options = self.applicable(candidate, n)
        if not options:
            return None
        weights = np.array([self._weight(m) for m in options])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return options[int(cdf.searchsorted(rng.random(), side="right"))]

    def __len__(self) -> int:
        return len(self.mutators)

    def __iter__(self):
        return iter(self.mutators)
