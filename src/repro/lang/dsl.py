"""The declarative class-based transform DSL.

This is the embedded-language face of the paper's language extensions:
a transform *declaration* is a decorated class whose body is the
declaration itself —

    from repro.lang import (transform, rule, accuracy_metric, call,
                            for_enough, accuracy_variable)

    @transform(inputs=("f",), outputs=("u",), accuracy_bins=(1, 3, 5))
    class poisson:
        vcycles = for_enough(max_iters=6, default=2)          # name inferred
        pre_iters = accuracy_variable(lo=0, hi=16, default=2,
                                      direction=+1)
        coarse = call("poisson")                              # call site

        @accuracy_metric
        def rms_improvement(outputs, inputs): ...

        @rule                                                 # inputs inferred
        def multigrid(ctx, f): ...                            # from the signature

Lowering is total: the decorator returns a plain
:class:`~repro.lang.transform.Transform`, so ``compile_program``, the
autotuner, the serving stack and ``repro.api.Project.from_transform``
all accept a DSL-declared program unchanged, and imperatively built
transforms remain the documented lowering target (you can keep calling
``.rule(...)`` on the lowered object — the bin-packing benchmark
registers its thirteen heuristics in a loop exactly that way).

Name inference rules:

* tunables — the class attribute name, via ``__set_name__`` on the
  nameless :class:`~repro.lang.tunables.TunableDecl` form;
* call sites — the class attribute name (``coarse = call("poisson")``);
* rules — the method name;
* rule inputs — the method's parameter names after ``ctx`` (after
  ``ctx, j, out`` for ``granularity="column"``), checked against the
  declared data;
* rule outputs — the transform's declared outputs, unless the rule
  names its own (``@rule(outputs=("centroids",))``).

All declaration errors are *batched*: the decorator validates the whole
class body and raises one :class:`~repro.errors.LanguageError` carrying
a :class:`~repro.lang.diagnostics.Diagnostics` collector in which every
entry points at the offending source line.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping, Sequence

from repro.errors import LanguageError, ReproError
from repro.lang.diagnostics import Diagnostics, SourceLocation
from repro.lang.metrics import AccuracyMetric
from repro.lang.rule import GRANULARITIES
from repro.lang.transform import CallSite, Transform
from repro.lang.tunables import TunableDecl

__all__ = ["transform", "rule", "accuracy_metric", "call", "allocator"]


# ----------------------------------------------------------------------
# Class-body declaration markers
# ----------------------------------------------------------------------
class RuleDecl:
    """A ``@rule``-decorated method, waiting to be lowered."""

    def __init__(self, fn: Callable, *,
                 outputs: Sequence[str] | None = None,
                 inputs: Sequence[str] | None = None,
                 name: str | None = None,
                 granularity: str = "whole"):
        self.fn = fn
        self.outputs = tuple(outputs) if outputs is not None else None
        self.inputs = tuple(inputs) if inputs is not None else None
        self.name = name
        self.granularity = granularity
        self.attr_name: str | None = None
        self.location = SourceLocation.of_callable(fn)

    def __set_name__(self, owner: type, name: str) -> None:
        self.attr_name = name

    @property
    def rule_name(self) -> str:
        return self.name or self.attr_name or self.fn.__name__


def rule(fn: Callable | None = None, *,
         outputs: Sequence[str] | None = None,
         inputs: Sequence[str] | None = None,
         name: str | None = None,
         granularity: str = "whole"):
    """Mark a class-body method as a rule.

    Bare (``@rule``) or parameterized (``@rule(outputs=...,
    granularity="column")``); also usable as a plain wrapper around an
    existing function (``subsample = rule(_subsample)``).  Inputs
    default to the parameter names of the function; outputs default to
    the transform's declared outputs.
    """
    if fn is not None:
        return RuleDecl(fn, outputs=outputs, inputs=inputs, name=name,
                        granularity=granularity)

    def mark(inner: Callable) -> RuleDecl:
        return RuleDecl(inner, outputs=outputs, inputs=inputs, name=name,
                        granularity=granularity)

    return mark


class MetricDecl:
    """An ``@accuracy_metric``-decorated method."""

    def __init__(self, fn: Callable, *, name: str | None = None,
                 higher_is_better: bool = True):
        self.fn = fn
        self.name = name
        self.higher_is_better = higher_is_better
        self.location = SourceLocation.of_callable(fn)

    def build(self) -> AccuracyMetric:
        return AccuracyMetric(self.fn, self.name,
                              higher_is_better=self.higher_is_better)


def accuracy_metric(fn: Callable | None = None, *,
                    name: str | None = None,
                    higher_is_better: bool = True):
    """Mark a class-body method (``(outputs, inputs) -> float``) as the
    transform's accuracy metric.

    Bare (``@accuracy_metric``) or parameterized
    (``@accuracy_metric(higher_is_better=False)``); also usable as a
    plain wrapper around an existing metric function
    (``metric = accuracy_metric(_metric, name="rms_improvement")``).
    """
    if fn is not None:
        return MetricDecl(fn, name=name,
                          higher_is_better=higher_is_better)

    def mark(inner: Callable) -> MetricDecl:
        return MetricDecl(inner, name=name,
                          higher_is_better=higher_is_better)

    return mark


class CallDecl:
    """A declared call site whose name is the class attribute name."""

    def __init__(self, target: str, accuracy: float | None = None):
        self.target = target
        self.accuracy = accuracy
        self.name: str | None = None
        self.location = SourceLocation.of_caller(depth=2)

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name


def call(target: str, accuracy: float | None = None) -> CallDecl:
    """Declare a call site to another transform.

    ``coarse = call("poisson")`` declares an auto-accuracy sub-call
    (the ``either ... or`` expansion); ``call("poisson", accuracy=3)``
    reproduces the template form ``poisson<3>``.
    """
    return CallDecl(target, accuracy)


class AllocatorDecl:
    """An ``@allocator("name")``-decorated method sizing through/output
    data before a column-granularity rule fills it."""

    def __init__(self, data_name: str, fn: Callable):
        self.data_name = data_name
        self.fn = fn
        self.location = SourceLocation.of_callable(fn)


def allocator(data_name: str):
    """Mark a class-body method (``(ctx, data) -> array``) as the
    allocator for ``data_name``."""

    def mark(fn: Callable) -> AllocatorDecl:
        return AllocatorDecl(data_name, fn)

    return mark


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
_PARAM_KINDS = (inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _rule_signature_inputs(decl: RuleDecl, diagnostics: Diagnostics,
                           transform_name: str) -> tuple[str, ...] | None:
    """Infer a rule's inputs from its parameter names.

    Returns ``None`` (and records a diagnostic) when the signature
    cannot be inferred from — varargs, keyword-only parameters, or too
    few leading context parameters.
    """
    name = decl.rule_name
    try:
        signature = inspect.signature(decl.fn)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        diagnostics.error(
            f"rule {name!r}: cannot read the function signature to "
            f"infer inputs; pass inputs=... explicitly",
            transform=transform_name, rule=name, location=decl.location)
        return None
    positional: list[str] = []
    for parameter in signature.parameters.values():
        if parameter.kind not in _PARAM_KINDS:
            diagnostics.error(
                f"rule {name!r}: cannot infer inputs from a signature "
                f"with {parameter.kind.description} parameter "
                f"{parameter.name!r}; use plain positional parameters "
                f"or pass inputs=... explicitly",
                transform=transform_name, rule=name,
                location=decl.location)
            return None
        positional.append(parameter.name)
    leading = 1 if decl.granularity != "column" else 3
    expected = "(ctx, <inputs...>)" if leading == 1 \
        else "(ctx, j, out, <inputs...>)"
    if len(positional) < leading:
        diagnostics.error(
            f"rule {name!r}: a {decl.granularity}-granularity rule "
            f"takes {expected}; got ({', '.join(positional) or ''})",
            transform=transform_name, rule=name, location=decl.location)
        return None
    return tuple(positional[leading:])


def transform(name: str | None = None, *,
              inputs: Sequence[str],
              outputs: Sequence[str],
              through: Sequence[str] = (),
              accuracy_bins: Sequence[float] | None = None,
              allocators: Mapping[str, Callable] | None = None,
              batchable: bool = False):
    """Class decorator lowering a declarative class body to a
    :class:`~repro.lang.transform.Transform`.

    The transform name defaults to the class name.  The decorated class
    is consumed: the decorator returns the lowered ``Transform``, which
    every downstream consumer (compiler, autotuner, serving,
    ``repro.api``) already accepts.  ``batchable=True`` makes the
    batchability pledge documented on
    :class:`~repro.lang.transform.Transform`: rules accept one leading
    batch dimension on every array input and the runtime may stack
    same-shape requests into single vectorized executions.
    """

    def lower(cls: type) -> Transform:
        return _lower_class(cls, name or cls.__name__,
                            inputs=tuple(inputs), outputs=tuple(outputs),
                            through=tuple(through),
                            accuracy_bins=accuracy_bins,
                            extra_allocators=dict(allocators or {}),
                            batchable=batchable)

    return lower


def _lower_class(cls: type, transform_name: str, *,
                 inputs: tuple[str, ...], outputs: tuple[str, ...],
                 through: tuple[str, ...],
                 accuracy_bins: Sequence[float] | None,
                 extra_allocators: dict[str, Callable],
                 batchable: bool = False) -> Transform:
    diagnostics = Diagnostics()
    known_data = set(inputs) | set(through) | set(outputs)

    tunables: list[Any] = []
    seen_tunables: set[str] = set()
    call_sites: list[CallSite] = []
    seen_calls: set[str] = set()
    metric_decls: list[MetricDecl | AccuracyMetric] = []
    allocator_map: dict[str, Callable] = dict(extra_allocators)
    rule_decls: list[RuleDecl] = []

    for attr_name, value in vars(cls).items():
        if isinstance(value, TunableDecl):
            try:
                param = value.build()
            except ReproError as exc:
                diagnostics.error(str(exc), transform=transform_name,
                                  location=value.location)
                continue
            if param.name in seen_tunables:
                diagnostics.error(
                    f"duplicate tunable {param.name!r}",
                    transform=transform_name, location=value.location)
                continue
            seen_tunables.add(param.name)
            tunables.append(param)
        elif _is_param(value):
            if value.name != attr_name:
                diagnostics.error(
                    f"tunable attribute {attr_name!r} is explicitly "
                    f"named {value.name!r}; omit the name and let the "
                    f"attribute name it",
                    transform=transform_name)
                continue
            if value.name in seen_tunables:
                diagnostics.error(f"duplicate tunable {value.name!r}",
                                  transform=transform_name)
                continue
            seen_tunables.add(value.name)
            tunables.append(value)
        elif isinstance(value, CallDecl):
            site_name = value.name or attr_name
            if site_name in seen_calls:
                diagnostics.error(
                    f"duplicate call site {site_name!r}",
                    transform=transform_name, location=value.location)
                continue
            seen_calls.add(site_name)
            call_sites.append(CallSite(name=site_name,
                                       target=value.target,
                                       accuracy=value.accuracy))
        elif isinstance(value, CallSite):
            if value.name != attr_name:
                diagnostics.error(
                    f"call-site attribute {attr_name!r} is explicitly "
                    f"named {value.name!r}; use call(target) and let "
                    f"the attribute name it",
                    transform=transform_name)
                continue
            if value.name in seen_calls:
                diagnostics.error(f"duplicate call site {value.name!r}",
                                  transform=transform_name)
                continue
            seen_calls.add(value.name)
            call_sites.append(value)
        elif isinstance(value, (MetricDecl, AccuracyMetric)):
            metric_decls.append(value)
        elif isinstance(value, AllocatorDecl):
            if value.data_name in allocator_map:
                diagnostics.error(
                    f"duplicate allocator for {value.data_name!r}",
                    transform=transform_name, location=value.location)
                continue
            if value.data_name not in set(through) | set(outputs):
                diagnostics.error(
                    f"allocator for unknown data {value.data_name!r} "
                    f"(allocatable: {sorted(set(through) | set(outputs))})",
                    transform=transform_name, location=value.location)
                continue
            allocator_map[value.data_name] = value.fn
        elif isinstance(value, RuleDecl):
            rule_decls.append(value)
        # Anything else — plain helpers, constants, dunders — is not a
        # declaration and is left alone.

    # Accuracy metric: at most one declaration.
    metric: AccuracyMetric | None = None
    if metric_decls:
        first = metric_decls[0]
        metric = first.build() if isinstance(first, MetricDecl) else first
        for extra in metric_decls[1:]:
            diagnostics.error(
                "more than one accuracy metric declared",
                transform=transform_name,
                location=getattr(extra, "location", None))

    # Rule pre-validation (batched; the imperative API would fail
    # fast).  A class body with no @rule methods is allowed — rules
    # may be registered on the lowered Transform afterwards (e.g. in a
    # loop over an algorithm table); compile-time validation still
    # rejects transforms that end up rule-less.
    resolved_rules: list[tuple[RuleDecl, tuple[str, ...],
                               tuple[str, ...]]] = []
    seen_rule_names: set[str] = set()
    for decl in rule_decls:
        rule_name = decl.rule_name
        ok = True
        if rule_name in seen_rule_names:
            diagnostics.error(f"duplicate rule {rule_name!r}",
                              transform=transform_name, rule=rule_name,
                              location=decl.location)
            ok = False
        seen_rule_names.add(rule_name)
        if decl.granularity not in GRANULARITIES:
            diagnostics.error(
                f"unknown granularity {decl.granularity!r}; expected "
                f"one of {GRANULARITIES}",
                transform=transform_name, rule=rule_name,
                location=decl.location)
            ok = False
        rule_inputs = decl.inputs
        if rule_inputs is None:
            rule_inputs = _rule_signature_inputs(decl, diagnostics,
                                                 transform_name)
            if rule_inputs is None:
                ok = False
        rule_outputs = decl.outputs if decl.outputs is not None else outputs
        for data_name in (rule_inputs or ()):
            if data_name not in known_data:
                diagnostics.error(
                    f"unknown input data {data_name!r} (declared data: "
                    f"{sorted(known_data)})",
                    transform=transform_name, rule=rule_name,
                    location=decl.location)
                ok = False
        for data_name in rule_outputs:
            if data_name not in known_data:
                diagnostics.error(
                    f"unknown output data {data_name!r} (declared "
                    f"data: {sorted(known_data)})",
                    transform=transform_name, rule=rule_name,
                    location=decl.location)
                ok = False
            elif data_name in inputs:
                diagnostics.error(
                    f"rule cannot write input data {data_name!r}",
                    transform=transform_name, rule=rule_name,
                    location=decl.location)
                ok = False
        if decl.granularity == "column" and len(rule_outputs) != 1:
            diagnostics.error(
                f"column granularity requires exactly one output, got "
                f"{tuple(rule_outputs)}",
                transform=transform_name, rule=rule_name,
                location=decl.location)
            ok = False
        if ok:
            resolved_rules.append((decl, tuple(rule_inputs),
                                   tuple(rule_outputs)))

    # Construct the Transform; constructor-level errors (duplicate data
    # names, bad transform name, ...) join the batch.
    lowered: Transform | None = None
    try:
        lowered = Transform(
            transform_name, inputs=inputs, outputs=outputs,
            through=through, accuracy_metric=metric,
            accuracy_bins=accuracy_bins, tunables=tunables,
            calls=call_sites, allocators=allocator_map,
            batchable=batchable)
    except LanguageError as exc:
        diagnostics.error(str(exc), transform=transform_name)

    if lowered is not None:
        for decl, rule_inputs, rule_outputs in resolved_rules:
            try:
                lowered.rule(outputs=rule_outputs, inputs=rule_inputs,
                             name=decl.rule_name,
                             granularity=decl.granularity)(decl.fn)
            except LanguageError as exc:
                diagnostics.error(str(exc), transform=transform_name,
                                  rule=decl.rule_name,
                                  location=decl.location)

    diagnostics.raise_if_errors(LanguageError)
    assert lowered is not None
    return lowered


def _is_param(value: Any) -> bool:
    """A fully named tunable parameter (the imperative constructors)."""
    from repro.config.parameters import ChoiceSiteParam, SizeValueParam
    return isinstance(value, (ChoiceSiteParam, SizeValueParam))
