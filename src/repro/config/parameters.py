"""Parameter space descriptions.

The compiler's static analysis (Section 5.3) reduces a program to a set
of named, typed tunable parameters; the autotuner generates mutators
from these descriptions.  Every parameter is configured by a decision
tree over input size (Section 5.2: "decision trees to decide which
algorithm to use for each choice site, accuracy, and input size"), and
two kinds describe the leaves:

* :class:`ChoiceSiteParam` — leaves drawn from a finite tuple of
  values: algorithmic choice sites and call-bin sites choose an index
  (``choices == tuple(range(k))``); ``switch()`` and the synthesized
  loop order choose among declared values.
* :class:`SizeValueParam` — numeric leaves in ``[lo, hi]``: accuracy
  variables, ``for_enough`` iteration counts and ``cutoff()`` values.

A *flat* parameter (``flat=True``: the ``cutoff()``, ``switch()`` and
``precision()`` declarations and the synthesized loop order) keeps a
tree with no levels, one value for every size: the mutator pool
changes its leaf and never adds a level.

:class:`PrecisionParam` is a :class:`ChoiceSiteParam` whose choices name
floating-point dtypes (``"float32"``/``"float64"``): the executor casts
an instance's inputs to the configured dtype before running its rules,
so the autotuner can trade numeric precision for speed under the same
statistical accuracy guarantees as any algorithmic choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ConfigError

__all__ = [
    "ChoiceSiteParam",
    "SizeValueParam",
    "PrecisionParam",
    "ParameterSpace",
    "PRECISION_DTYPES",
    "precision_dtype",
]

#: Floating-point dtypes a :class:`PrecisionParam` may name.  The keys
#: are the canonical spellings accepted by ``precision()`` in the DSL.
PRECISION_DTYPES: Mapping[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def precision_dtype(name: Any) -> np.dtype:
    """Resolve a configured precision entry to a numpy dtype.

    Raises :class:`ConfigError` listing the valid choices for anything
    outside :data:`PRECISION_DTYPES` — the config-layer counterpart of
    the DSL-level ``precision()`` validation.
    """
    try:
        return PRECISION_DTYPES[name]
    except (KeyError, TypeError):
        valid = ", ".join(sorted(PRECISION_DTYPES))
        raise ConfigError(
            f"unknown precision {name!r}; valid choices: {valid}") from None


@dataclass(frozen=True)
class ChoiceSiteParam:
    """A tunable whose leaves are drawn from the tuple ``choices``.

    ``default`` names a choice (None: the first).  Choices given as any
    iterable are stored as a tuple.
    """

    name: str
    choices: tuple[Any, ...]
    default: Any = None
    choice_labels: tuple[str, ...] = ()
    #: True when switching the choice can change result accuracy (the
    #: autotuner conservatively assumes so unless told otherwise).
    affects_accuracy: bool = True
    #: One value for every size (see the module docstring).
    flat: bool = False

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise ConfigError(f"choice site {self.name!r} needs >= 1 choice")
        if self.default is None:
            object.__setattr__(self, "default", self.choices[0])
        elif self.default not in self.choices:
            raise ConfigError(
                f"choice site {self.name!r}: default {self.default!r} not "
                f"in choices {self.choices!r}")
        if self.choice_labels and len(self.choice_labels) != self.num_choices:
            raise ConfigError(
                f"choice site {self.name!r}: {len(self.choice_labels)} labels "
                f"for {self.num_choices} choices")

    @property
    def num_choices(self) -> int:
        return len(self.choices)

    def default_entry(self) -> SizeDecisionTree:
        return SizeDecisionTree([self.default])

    def clamp(self, value: int) -> int:
        return int(min(max(value, 0), self.num_choices - 1))

    def label(self, index: int) -> str:
        if self.choice_labels:
            return self.choice_labels[index]
        return str(index)


@dataclass(frozen=True)
class SizeValueParam:
    """A numeric tunable whose value may vary with input size.

    ``accuracy_direction`` is the static-analysis hint used by guided
    mutation (Section 5.5.3): +1 means increasing the value tends to
    increase accuracy (e.g. iteration counts), -1 the opposite, 0 means
    unknown / no monotone relationship.
    """

    name: str
    lo: float
    hi: float
    default: float
    integer: bool = True
    scaling: str = "lognormal"  # "lognormal" | "uniform"
    accuracy_direction: int = 0
    is_accuracy_variable: bool = False
    affects_accuracy: bool = True
    #: One value for every size (see the module docstring).
    flat: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(
                f"parameter {self.name!r}: lo {self.lo} > hi {self.hi}")
        if not self.lo <= self.default <= self.hi:
            raise ConfigError(
                f"parameter {self.name!r}: default {self.default} outside "
                f"[{self.lo}, {self.hi}]")
        if self.scaling not in ("lognormal", "uniform"):
            raise ConfigError(
                f"parameter {self.name!r}: unknown scaling {self.scaling!r}")

    def default_entry(self) -> SizeDecisionTree:
        return SizeDecisionTree([self.coerce(self.default)])

    def coerce(self, value: float) -> float:
        """Clamp ``value`` into the domain and round if integral."""
        value = min(max(float(value), self.lo), self.hi)
        if self.integer:
            value = float(int(round(value)))
        return value


@dataclass(frozen=True)
class PrecisionParam(ChoiceSiteParam):
    """A choice over floating-point dtype names (``precision()`` in the DSL).

    Mutated, sampled, validated and serialised as any choice site; the
    executor additionally casts the owning instance's floating inputs
    to the configured dtype before running its rules, and scales
    abstract cost by the dtype's relative width (float32 ops count half
    a float64 op — the bandwidth model the stacked kernels follow).
    The subclass name appears in the dataclass repr, so adding a
    precision dimension changes :meth:`ParameterSpace.digest`.
    """

    def __post_init__(self):
        super().__post_init__()
        for choice in self.choices:
            if choice not in PRECISION_DTYPES:
                valid = ", ".join(sorted(PRECISION_DTYPES))
                raise ConfigError(
                    f"precision {self.name!r}: unknown dtype {choice!r}; "
                    f"valid choices: {valid}")

    def dtype(self, value: Any) -> np.dtype:
        """The numpy dtype a configured entry names."""
        return precision_dtype(value)


Param = ChoiceSiteParam | SizeValueParam


class ParameterSpace:
    """The set of all tunable parameters of a compiled program.

    Acts as a mapping from parameter name to parameter description and
    knows how to produce a default configuration and validate arbitrary
    configurations against the domains.
    """

    def __init__(self, params: Iterable[Param] = ()):
        self._params: dict[str, Param] = {}
        for param in params:
            self.add(param)

    def add(self, param: Param) -> None:
        if param.name in self._params:
            raise ConfigError(f"duplicate parameter {param.name!r}")
        self._params[param.name] = param

    # Mapping-style access -------------------------------------------------
    def __getitem__(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def digest(self) -> str:
        """Stable content digest of the whole configuration space.

        Two programs with the same digest expose the same tunables
        with the same domains and defaults — the compile-time
        equivalence check behind the DSL-vs-imperative lowering tests
        and the ``repro.lang.check`` CI gate.  Order-insensitive (the
        space is keyed by name).
        """
        import hashlib
        text = "\n".join(repr(self._params[name])
                         for name in sorted(self._params))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def choice_sites(self) -> list[ChoiceSiteParam]:
        return [p for p in self if isinstance(p, ChoiceSiteParam)]

    def size_values(self) -> list[SizeValueParam]:
        return [p for p in self if isinstance(p, SizeValueParam)]

    def accuracy_variables(self) -> list[SizeValueParam]:
        return [p for p in self.size_values() if p.is_accuracy_variable]

    # Configuration construction -------------------------------------------
    def default_config(self):
        from repro.config.configuration import Configuration
        entries = {p.name: p.default_entry() for p in self}
        return Configuration(entries)

    def random_config(self, rng: np.random.Generator):
        """A configuration sampled uniformly from every domain."""
        from repro.config.configuration import Configuration
        entries: dict[str, Any] = {}
        for param in self:
            if isinstance(param, ChoiceSiteParam):
                entries[param.name] = param.choices[
                    int(rng.integers(0, param.num_choices))]
            else:
                entries[param.name] = param.coerce(
                    rng.uniform(param.lo, param.hi))
        return Configuration(entries)

    def validate(self, config) -> None:
        """Raise :class:`ConfigError` if ``config`` violates any domain."""
        for param in self:
            for leaf in config[param.name].leaves:
                if isinstance(param, ChoiceSiteParam):
                    if leaf not in param.choices:
                        raise ConfigError(
                            f"{param.name!r}: choice {leaf!r} out of range "
                            f"{param.choices!r}")
                elif not param.lo <= float(leaf) <= param.hi:
                    raise ConfigError(
                        f"{param.name!r}: value {leaf} outside "
                        f"[{param.lo}, {param.hi}]")

    def merged_with(self, other: "ParameterSpace") -> "ParameterSpace":
        merged = ParameterSpace(list(self))
        for param in other:
            if param.name not in merged:
                merged.add(param)
        return merged
