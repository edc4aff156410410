"""Transforms: the top-level unit of the DSL.

A transform declares its data (inputs, intermediate "through" data and
outputs), its rules, its variable-accuracy metadata (metric, accuracy
variables, accuracy bins) and its call sites to other transforms.  The
compiler (:mod:`repro.compiler.compile`) turns a transform — together
with every transform reachable through its call sites — into an
executable :class:`~repro.compiler.program.CompiledProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.config.parameters import (
    ChoiceSiteParam,
    PrecisionParam,
    SizeValueParam,
)
from repro.errors import LanguageError
from repro.lang.diagnostics import Diagnostics
from repro.lang.metrics import AccuracyMetric
from repro.lang.rule import Rule
from repro.lang.tunables import TunableDecl

__all__ = ["Transform", "CallSite", "DEFAULT_ACCURACY_BINS"]

#: Default accuracy bins: "If not specified, the default range of
#: accuracies is 0 to 1.0" (Section 3.2).
DEFAULT_ACCURACY_BINS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class CallSite:
    """A declared call from one transform to another.

    ``accuracy`` distinguishes the paper's two call forms: an explicit
    value reproduces the template syntax ``Callee<accuracy>``; ``None``
    requests automatic sub-accuracy selection, which the compiler
    expands into a choice over the callee's accuracy bins (the
    ``either ... or`` expansion of Section 3.2).
    """

    name: str
    target: str
    accuracy: float | None = None


def _bin_label(target: float) -> str:
    return f"{target:g}"


class Transform:
    """A named transform with rules, tunables and accuracy metadata."""

    def __init__(self, name: str, *,
                 inputs: Sequence[str],
                 outputs: Sequence[str],
                 through: Sequence[str] = (),
                 accuracy_metric: AccuracyMetric | Callable | None = None,
                 accuracy_bins: Sequence[float] | None = None,
                 tunables: Iterable[SizeValueParam | ChoiceSiteParam] = (),
                 calls: Iterable[CallSite] = (),
                 allocators: Mapping[str, Callable] | None = None,
                 batchable: bool = False):
        if not name or not name.isidentifier():
            raise LanguageError(f"transform name must be an identifier: {name!r}")
        self.name = name
        #: Batchability pledge: every rule accepts one leading batch
        #: dimension on all array inputs and produces outputs with the
        #: same leading dimension, execution never consults the trial
        #: seed, control flow is identical across slices, and recorded
        #: cost scales exactly by the batch size.  The runtime's
        #: stacked execution path (repro.runtime.batching) only groups
        #: requests for transforms that make this pledge.
        self.batchable = bool(batchable)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.through = tuple(through)
        if not self.outputs:
            raise LanguageError(f"transform {name!r} needs at least one output")
        all_data = self.inputs + self.through + self.outputs
        if len(set(all_data)) != len(all_data):
            raise LanguageError(
                f"transform {name!r}: data names must be unique: {all_data}")

        if accuracy_metric is not None and not isinstance(
                accuracy_metric, AccuracyMetric):
            accuracy_metric = AccuracyMetric(accuracy_metric)
        self.accuracy_metric: AccuracyMetric | None = accuracy_metric

        if accuracy_bins is None:
            bins = DEFAULT_ACCURACY_BINS if accuracy_metric is not None else ()
        else:
            bins = tuple(float(b) for b in accuracy_bins)
            if accuracy_metric is None:
                raise LanguageError(
                    f"transform {name!r}: accuracy_bins requires an "
                    f"accuracy_metric")
        if bins and len(set(bins)) != len(bins):
            raise LanguageError(f"transform {name!r}: duplicate accuracy bins")
        # Store bins sorted from least to most accurate under the metric.
        if bins:
            self.accuracy_bins = tuple(sorted(
                bins, key=self.accuracy_metric.sort_key))
        else:
            self.accuracy_bins = ()

        self.tunables: list[SizeValueParam | ChoiceSiteParam] = []
        #: The transform's precision() tunable, if declared (at most
        #: one: the executor casts *all* the instance's floating inputs
        #: per its entry, so a second would be ambiguous).
        self.precision_param: PrecisionParam | None = None
        seen: set[str] = set()
        for tunable in tunables:
            if isinstance(tunable, TunableDecl):
                # A DSL declaration passed to the imperative API:
                # resolve it (build() raises, pointing at the
                # declaration site, when it never received a name).
                tunable = tunable.build()
            if tunable.name in seen:
                raise LanguageError(
                    f"transform {name!r}: duplicate tunable {tunable.name!r}")
            seen.add(tunable.name)
            self._track_precision(tunable)
            self.tunables.append(tunable)

        self.call_sites: dict[str, CallSite] = {}
        for site in calls:
            if site.name in self.call_sites:
                raise LanguageError(
                    f"transform {name!r}: duplicate call site {site.name!r}")
            self.call_sites[site.name] = site

        self.allocators: dict[str, Callable] = dict(allocators or {})
        for data_name in self.allocators:
            if data_name not in self.through + self.outputs:
                raise LanguageError(
                    f"transform {name!r}: allocator for unknown data "
                    f"{data_name!r}")

        self.rules: list[Rule] = []

    # ------------------------------------------------------------------
    # Declaration API
    # ------------------------------------------------------------------
    def rule(self, *, outputs: Sequence[str], inputs: Sequence[str] = (),
             name: str | None = None, granularity: str = "whole"):
        """Decorator registering a rule on this transform.

        Multiple rules may produce the same outputs; such groups become
        algorithmic choice sites.
        """
        known = set(self.inputs + self.through + self.outputs)

        def register(fn: Callable) -> Callable:
            rule_name = name or fn.__name__
            if any(r.name == rule_name for r in self.rules):
                raise LanguageError(
                    f"transform {self.name!r}: duplicate rule {rule_name!r}")
            for data_name in tuple(inputs) + tuple(outputs):
                if data_name not in known:
                    raise LanguageError(
                        f"rule {rule_name!r}: unknown data {data_name!r} "
                        f"(known: {sorted(known)})")
            for data_name in outputs:
                if data_name in self.inputs:
                    raise LanguageError(
                        f"rule {rule_name!r}: cannot write input "
                        f"{data_name!r}")
            self.rules.append(Rule(
                name=rule_name, fn=fn, inputs=tuple(inputs),
                outputs=tuple(outputs), granularity=granularity))
            return fn

        return register

    def add_tunable(self, tunable: SizeValueParam | ChoiceSiteParam
                    ) -> None:
        if isinstance(tunable, TunableDecl):
            tunable = tunable.build()
        if any(t.name == tunable.name for t in self.tunables):
            raise LanguageError(
                f"transform {self.name!r}: duplicate tunable "
                f"{tunable.name!r}")
        self._track_precision(tunable)
        self.tunables.append(tunable)

    def _track_precision(self, tunable) -> None:
        if isinstance(tunable, PrecisionParam):
            if self.precision_param is not None:
                raise LanguageError(
                    f"transform {self.name!r}: a second precision() "
                    f"tunable {tunable.name!r} (already declared: "
                    f"{self.precision_param.name!r}); a transform has "
                    f"one working precision")
            self.precision_param = tunable

    # ------------------------------------------------------------------
    # Introspection used by the compiler
    # ------------------------------------------------------------------
    @property
    def is_variable_accuracy(self) -> bool:
        return self.accuracy_metric is not None

    @property
    def data_names(self) -> tuple[str, ...]:
        return self.inputs + self.through + self.outputs

    def producers(self, data_name: str) -> list[Rule]:
        return [r for r in self.rules if data_name in r.outputs]

    def choice_groups(self) -> list[tuple[tuple[str, ...], list[Rule]]]:
        """Group rules by their output tuple.

        Each group with more than one rule is an algorithmic choice
        site.  Rules whose output sets partially overlap (same datum
        under different output tuples) are rejected: the compiler could
        not schedule a single producer for that datum.
        """
        groups: dict[tuple[str, ...], list[Rule]] = {}
        for rule in self.rules:
            groups.setdefault(rule.outputs, []).append(rule)
        produced: dict[str, tuple[str, ...]] = {}
        for outputs in groups:
            for data_name in outputs:
                if data_name in produced and produced[data_name] != outputs:
                    raise LanguageError(
                        f"transform {self.name!r}: data {data_name!r} is "
                        f"produced by rules with different output groups "
                        f"{produced[data_name]} vs {outputs}")
                produced[data_name] = outputs
        return sorted(groups.items(), key=lambda item: item[0])

    def validate(self, diagnostics: Diagnostics | None = None) -> None:
        """Check every through/output datum has at least one producer.

        Standalone calls fail fast with a :class:`LanguageError`
        carrying every problem found; when the compiler passes its own
        :class:`~repro.lang.diagnostics.Diagnostics` collector the
        errors accumulate there instead (so one compile pass reports
        the problems of *every* reachable transform together).
        """
        collected = diagnostics if diagnostics is not None \
            else Diagnostics()
        if not self.rules:
            collected.error(f"transform {self.name!r} has no rules",
                            transform=self.name)
        for data_name in self.through + self.outputs:
            if self.rules and not self.producers(data_name):
                producers = sorted({r.name for r in self.rules})
                collected.error(
                    f"no rule produces {data_name!r} (rules: "
                    f"{producers})",
                    transform=self.name)
        try:
            self.choice_groups()
        except LanguageError as exc:
            collected.error(str(exc), transform=self.name)
        if diagnostics is None:
            collected.raise_if_errors(LanguageError)

    # ------------------------------------------------------------------
    # Accuracy-bin helpers
    # ------------------------------------------------------------------
    def add_accuracy_bin(self, target: float) -> None:
        """Add an extra accuracy bin boundary.

        Used by the compiler's bin inference: "if an algorithm is
        called with a specific accuracy, that specific accuracy can be
        added as extra bin boundary by the compiler" (Section 4.2).
        """
        if self.accuracy_metric is None:
            raise LanguageError(
                f"transform {self.name!r}: cannot add accuracy bins "
                f"without an accuracy metric")
        target = float(target)
        if target in self.accuracy_bins:
            return
        self.accuracy_bins = tuple(sorted(
            self.accuracy_bins + (target,),
            key=self.accuracy_metric.sort_key))

    def bin_labels(self) -> tuple[str, ...]:
        return tuple(_bin_label(b) for b in self.accuracy_bins)

    def bin_label(self, target: float) -> str:
        if target not in self.accuracy_bins:
            raise LanguageError(
                f"transform {self.name!r}: {target} is not an accuracy bin "
                f"(bins: {self.accuracy_bins})")
        return _bin_label(target)

    def bin_for_accuracy(self, requested: float) -> float:
        """Dynamic bin lookup (Section 4.2).

        Returns the least accurate bin whose target still satisfies the
        requested accuracy; if no bin satisfies it, the most accurate
        bin is returned (the best the tuned program can offer).
        """
        if not self.accuracy_bins:
            raise LanguageError(
                f"transform {self.name!r} has no accuracy bins")
        metric = self.accuracy_metric
        for target in self.accuracy_bins:  # least -> most accurate
            if metric.meets(target, requested):
                return target
        return self.accuracy_bins[-1]

    def __repr__(self) -> str:
        kind = "variable-accuracy " if self.is_variable_accuracy else ""
        return (f"<{kind}Transform {self.name!r}: "
                f"{len(self.rules)} rules, {len(self.tunables)} tunables>")
