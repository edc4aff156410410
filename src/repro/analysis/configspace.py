"""Config-space checks on a compiled program, and its search-space size.

Two declaration errors that no execution shows, reported by
:func:`repro.lang.check` (and so by ``python -m repro.lang``):

* **dead tunable** — declared on a transform but read by no reachable
  function.  Every instance of the transform drags the tunable into
  the search space, so a dead one multiplies the space for nothing and
  silently lies in ``describe()``.  Tunable reads are discovered as
  string literals in ``ctx.param("name")`` / ``ctx.for_enough("name")``
  calls across every function reachable from the transform's rules,
  metric and allocators (the whole repository reads tunables by
  literal name).  The ``precision()`` tunable is exempt: the
  *executor* reads it, not the rules.
* **unreachable instance** — bin inference materialises one instance
  per (callee, accuracy bin), but a callee only ever invoked with
  explicit accuracies can have bins no call path dispatches to: tuned
  configuration that is never exercised.

:func:`search_space_size` is the estimate ``describe()`` prints: log10
of the product of the discrete domain sizes (choice sites, switches,
integer ranges), with continuous dimensions counted separately rather
than discretised into a made-up resolution.
"""

from __future__ import annotations

import ast
import math

from repro.analysis.callgraph import CallGraph, transform_functions
from repro.config.parameters import (
    ChoiceSiteParam,
    ParameterSpace,
    ScalarParam,
    SizeValueParam,
    SwitchParam,
)
from repro.lang.diagnostics import Diagnostics

__all__ = ["config_space_diagnostics", "search_space_size",
           "render_search_space"]

#: ExecutionContext methods whose first (literal) argument names a
#: tunable being read.
_READER_METHODS = ("param", "for_enough")


def _tunable_reads(graph: CallGraph, transform) -> set[str]:
    """Tunable names read anywhere reachable from the transform."""
    reads: set[str] = set()
    for info in graph.reachable(transform_functions(transform)):
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _READER_METHODS
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                reads.add(node.args[0].value)
    return reads


def _dead_tunables(graph: CallGraph, transform,
                   diagnostics: Diagnostics) -> None:
    precision = transform.precision_param
    names = [tunable.name for tunable in transform.tunables
             if precision is None or tunable.name != precision.name]
    if not names:
        return
    reads = _tunable_reads(graph, transform)
    first_rule = transform.rules[0] if transform.rules else None
    info = graph.info(first_rule.fn) if first_rule is not None else None
    for name in names:
        if name in reads:
            continue
        diagnostics.error(
            f"dead tunable {name!r}: no reachable rule reads it (no "
            f"ctx.param({name!r}) or ctx.for_enough({name!r}) on any "
            f"path); it multiplies the search space of every instance "
            f"for nothing",
            transform=transform.name,
            location=info.location() if info is not None else None)


def _unreachable_instances(program, diagnostics: Diagnostics) -> None:
    """BFS over the instance graph from the root's main instance."""
    instances = program.instances
    reached: set[str] = set()
    frontier = [f"{program.root}@main"]
    while frontier:
        prefix = frontier.pop()
        if prefix in reached or prefix not in instances:
            continue
        reached.add(prefix)
        transform = instances[prefix].transform
        for site in transform.call_sites.values():
            callee = program.transform(site.target)
            if not callee.is_variable_accuracy:
                frontier.append(f"{site.target}@main")
            elif site.accuracy is not None:
                target = callee.bin_for_accuracy(site.accuracy)
                frontier.append(
                    f"{site.target}@{callee.bin_label(target)}")
            else:
                frontier.extend(
                    f"{site.target}@{label}"
                    for label in callee.bin_labels())
    for prefix in sorted(set(instances) - reached):
        diagnostics.error(
            f"unreachable instance {prefix!r}: no call path from "
            f"{program.root}@main dispatches to it, yet its tunables "
            f"sit in the search space",
            transform=instances[prefix].transform.name)


def config_space_diagnostics(program) -> Diagnostics:
    """Dead tunables and unreachable instances of a compiled program."""
    diagnostics = Diagnostics()
    graph = CallGraph()
    for name in sorted(program.transforms):
        _dead_tunables(graph, program.transform(name), diagnostics)
    _unreachable_instances(program, diagnostics)
    return diagnostics


def search_space_size(space: ParameterSpace) -> tuple[float, int]:
    """``(log10_discrete, continuous_dims)`` for the whole space.

    The first element is log10 of the product of every finite domain's
    size; the second counts continuous (non-integer numeric) dimensions,
    which have no meaningful cardinality.
    """
    log10 = 0.0
    continuous = 0
    for param in space:
        if isinstance(param, ChoiceSiteParam):
            log10 += math.log10(param.num_choices)
        elif isinstance(param, (SizeValueParam, ScalarParam)):
            if param.integer:
                log10 += math.log10(param.hi - param.lo + 1.0)
            else:
                continuous += 1
        elif isinstance(param, SwitchParam):
            log10 += math.log10(len(param.choices))
    return log10, continuous


def render_search_space(space: ParameterSpace) -> str:
    """One-line human rendering of :func:`search_space_size`."""
    log10, continuous = search_space_size(space)
    text = (f"{len(space)} parameters, ~10^{log10:.1f} discrete "
            f"configurations")
    if continuous:
        text += (f" (x {continuous} continuous dimension"
                 f"{'s' if continuous != 1 else ''})")
    return text
