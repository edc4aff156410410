"""The variable-accuracy DSL.

This package embeds the PetaBricks variable-accuracy language of the
paper into Python.  The declaration surface is the *class-based DSL* of
:mod:`repro.lang.dsl`: an ``@transform``-decorated class whose body is
the declaration (tunables as class attributes with inferred names,
rules as ``@rule`` methods with inputs inferred from their signatures,
call sites as ``call(...)`` attributes, the metric as an
``@accuracy_metric`` method).  The DSL *lowers* to a
:class:`~repro.lang.transform.Transform` — the imperative API remains
the documented lowering target, and everything downstream (compiler,
autotuner, serving, ``repro.api``) accepts either form unchanged.

The variable-accuracy extensions of Section 3 map as follows:

===========================  ==================================================
Paper construct              DSL construct
===========================  ==================================================
``transform``                ``@transform(inputs=..., outputs=...)`` class
``accuracy_metric``          ``@accuracy_metric`` method
``accuracy variable``        :func:`repro.lang.tunables.accuracy_variable`
``accuracy_bins``            ``@transform(accuracy_bins=...)``
``for_enough``               ``ctx.for_enough("name")`` + ``for_enough`` tunable
``scaled_by``                :func:`repro.lang.scaling.scaled_by`
``Foo<accuracy>`` calls      ``site = call("Foo", accuracy=N)`` / ``ctx.call``
automatic sub-accuracy       ``site = call("Foo")`` (either...or)
``verify_accuracy``          ``TunedProgram.run(verify=True)``, or
                             ``ServeRequest(verify=True)`` when served
===========================  ==================================================

Declaration and compile errors are *batched*: every problem in a
declaration is collected into a
:class:`~repro.lang.diagnostics.Diagnostics` pass with source
locations and raised once.  :func:`repro.lang.check` runs those checks
without raising, adding the config-space errors no execution shows
(dead tunables, unreachable instances), and
:func:`repro.lang.describe` renders a program's choice sites,
tunables, accuracy bins and call graph (``python -m repro.lang`` gates
the suite and example declarations in CI).
"""

from repro.lang.tunables import (
    TunableDecl,
    accuracy_variable,
    for_enough,
    cutoff,
    switch,
    precision,
)
from repro.lang.diagnostics import Diagnostic, Diagnostics, SourceLocation
from repro.lang.metrics import AccuracyMetric
from repro.lang.rule import Rule
from repro.lang.transform import CallSite, Transform
from repro.lang.dsl import accuracy_metric, allocator, call, rule, transform
from repro.lang.scaling import scaled_by, RESAMPLERS
from repro.lang.check import check, describe

__all__ = [
    "Transform",
    "CallSite",
    "Rule",
    "AccuracyMetric",
    "transform",
    "rule",
    "accuracy_metric",
    "call",
    "allocator",
    "accuracy_variable",
    "for_enough",
    "cutoff",
    "switch",
    "precision",
    "TunableDecl",
    "Diagnostic",
    "Diagnostics",
    "SourceLocation",
    "check",
    "describe",
    "scaled_by",
    "RESAMPLERS",
]
