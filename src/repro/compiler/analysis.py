"""Static analysis: call-graph discovery and parameter-space extraction.

This is the compiler pass that makes autotuning possible without the
"search space growing prohibitively large" (Section 1.1): every
variable-accuracy transform that appears as a call-site target is
instantiated once per accuracy bin, and a sub-call without an explicit
accuracy becomes a small choice site over the callee's bins rather than
a continuous accuracy dimension.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.compiler.choice_graph import schedule_groups
from repro.compiler.program import Instance
from repro.config.parameters import ChoiceSiteParam, ParameterSpace
from repro.errors import CompileError
from repro.lang.diagnostics import Diagnostics
from repro.lang.transform import Transform

__all__ = ["gather_transforms", "build_instances", "build_parameter_space"]


def gather_transforms(root: Transform,
                      registry: Mapping[str, Transform],
                      diagnostics: Diagnostics | None = None
                      ) -> dict[str, Transform]:
    """All transforms reachable from ``root`` through call sites.

    An unknown call-site target raises :class:`CompileError` directly;
    with a ``diagnostics`` collector every unresolved target is
    recorded (naming the declaring transform and call site) and the
    remaining graph is still gathered, so one compile pass reports all
    of them.
    """
    known = dict(registry)
    known.setdefault(root.name, root)
    if known[root.name] is not root:
        raise CompileError(
            f"registry maps {root.name!r} to a different transform object")
    reachable: dict[str, Transform] = {}
    worklist = [(root.name, root.name, None)]
    while worklist:
        name, caller, site_name = worklist.pop()
        if name in reachable:
            continue
        try:
            transform = known[name]
        except KeyError:
            message = (f"call site {site_name!r} targets unknown "
                       f"transform {name!r}; pass it to "
                       f"compile_program(transforms=...)")
            if diagnostics is None:
                raise CompileError(message) from None
            diagnostics.error(message, transform=caller)
            continue
        reachable[name] = transform
        for site in transform.call_sites.values():
            worklist.append((site.target, name, site.name))
    return reachable


def build_instances(root: Transform,
                    transforms: Mapping[str, Transform]
                    ) -> dict[str, Instance]:
    """Create the (transform, bin) instances of the program.

    * the root transform gets a ``main`` instance (measured by the
      tuner);
    * every transform that is the target of some call site gets either
      one ``main`` instance (fixed accuracy) or one instance per
      accuracy bin (variable accuracy) — the template-like instance
      types of Section 4.2.
    """
    schedules = {name: tuple(schedule_groups(transform))
                 for name, transform in transforms.items()}

    call_targets: set[str] = set()
    for transform in transforms.values():
        for site in transform.call_sites.values():
            call_targets.add(site.target)

    instances: dict[str, Instance] = {}

    def add(prefix: str, transform: Transform, bin_target: float | None):
        instances[prefix] = Instance(
            prefix=prefix, transform=transform, bin_target=bin_target,
            schedule=schedules[transform.name])

    add(f"{root.name}@main", root, None)
    for name in sorted(call_targets):
        transform = transforms[name]
        if transform.is_variable_accuracy:
            for target in transform.accuracy_bins:
                label = transform.bin_label(target)
                prefix = f"{name}@{label}"
                if prefix not in instances:
                    add(prefix, transform, target)
        else:
            prefix = f"{name}@main"
            if prefix not in instances:
                add(prefix, transform, None)
    return instances


def build_parameter_space(instances: Mapping[str, Instance],
                          transforms: Mapping[str, Transform]
                          ) -> ParameterSpace:
    """Enumerate every tunable of every instance."""
    space = ParameterSpace()
    for prefix in sorted(instances):
        instance = instances[prefix]
        transform = instance.transform

        # Algorithmic choice sites (one per multi-rule choice group).
        for group in instance.schedule:
            if group.is_choice_site:
                space.add(ChoiceSiteParam(
                    name=instance.choice_key(group.site_name),
                    choices=tuple(range(len(group.rules))),
                    choice_labels=tuple(r.name for r in group.rules)))

        # Transform-declared tunables, namespaced per instance.
        for tunable in transform.tunables:
            space.add(dataclasses.replace(
                tunable, name=instance.key(tunable.name)))

        # Synthesized outer control flow for column-granularity rules.
        for rule in transform.rules:
            if rule.granularity == "column":
                space.add(ChoiceSiteParam(
                    name=instance.order_key(rule.name),
                    choices=("forward", "backward"),
                    affects_accuracy=False, flat=True))

        # Sub-accuracy selection for auto-accuracy call sites.
        for site in transform.call_sites.values():
            callee = transforms[site.target]
            if callee.is_variable_accuracy and site.accuracy is None:
                space.add(ChoiceSiteParam(
                    name=instance.call_bin_key(site.name),
                    choices=tuple(range(len(callee.accuracy_bins))),
                    # Default to the most accurate bin so the initial
                    # population meets targets; the tuner then explores
                    # cheaper sub-accuracies.
                    default=len(callee.accuracy_bins) - 1,
                    choice_labels=callee.bin_labels()))
    return space
