"""Program introspection (``describe``) and declaration checking
(``check``) — plus the ``python -m repro.lang`` CI gate.

``describe()`` renders what the compiler extracted from a declaration:
the algorithmic choice sites, every tunable with its domain and
guided-mutation hints, the accuracy bins, the call graph, the per-bin
instances and the search-space size — the human-readable face of the
training-info file.

``check()`` runs the full declaration + compile validation over a
transform, a factory, or a registered benchmark, then the
config-space checks of :mod:`repro.analysis` (dead tunables,
unreachable instances), and returns the
:class:`~repro.lang.diagnostics.Diagnostics` collector instead of
raising, so tools can report every problem in one pass.

Running this module as a script checks every registered suite
benchmark and exits non-zero if any declaration regressed;
``--examples <dir>`` adds example files and ``--json`` emits
machine-readable results.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.lang.diagnostics import Diagnostics
from repro.lang.targets import (example_files, load_example_targets,
                                resolve_program)
from repro.lang.transform import Transform

__all__ = ["describe", "check", "check_example_file", "main"]


def _describe_tunable(param) -> str:
    from repro.config.parameters import PrecisionParam, SizeValueParam
    if isinstance(param, SizeValueParam):
        kind = ("accuracy variable" if param.is_accuracy_variable
                else "size value")
        hint = {1: ", direction +1", -1: ", direction -1"}.get(
            param.accuracy_direction, "")
        return (f"{kind} in [{param.lo:g}, {param.hi:g}], "
                f"default {param.default:g}{hint}")
    if isinstance(param, PrecisionParam):
        return (f"precision over {list(param.choices)!r}, "
                f"default {param.default!r} (executor casts inputs)")
    return f"switch over {list(param.choices)!r}"


def describe(target, extras: Sequence[Transform] = ()) -> str:
    """Human-readable summary of a program's tuning surface.

    Shows, per transform: data flow, accuracy metric and bins, every
    algorithmic choice site with its candidate rules, every tunable
    with its domain, and the declared call sites; then the instance
    list, the config-space digest and the search-space size estimate.
    ``target`` is anything :func:`check` accepts.
    """
    from repro.analysis import render_search_space

    program = resolve_program(target, extras)
    lines: list[str] = []
    space = program.space
    lines.append(f"program {program.root}: "
                 f"{len(program.instances)} instances, "
                 f"{len(space)} parameters")
    lines.append(f"config-space digest: {space.digest()}")
    lines.append(f"search space: {render_search_space(space)}")
    for name in sorted(program.transforms):
        transform = program.transforms[name]
        kind = ("variable accuracy" if transform.is_variable_accuracy
                else "fixed accuracy")
        lines.append(f"transform {name} ({kind})")
        lines.append(f"  data: {', '.join(transform.inputs) or '()'} -> "
                     f"{', '.join(transform.outputs)}"
                     + (f" (through: {', '.join(transform.through)})"
                        if transform.through else ""))
        metric = transform.accuracy_metric
        if metric is not None:
            direction = ("higher" if metric.higher_is_better else "lower")
            lines.append(f"  accuracy metric: {metric.name} "
                         f"({direction} is better)")
            lines.append("  accuracy bins: "
                         + ", ".join(transform.bin_labels()))
        for outputs, rules in transform.choice_groups():
            if len(rules) > 1:
                lines.append(f"  choice site {'+'.join(outputs)}: "
                             + " | ".join(r.name for r in rules))
        for param in transform.tunables:
            lines.append(f"  tunable {param.name}: "
                         + _describe_tunable(param))
        for site in transform.call_sites.values():
            accuracy = ("auto accuracy" if site.accuracy is None
                        else f"accuracy {site.accuracy:g}")
            lines.append(f"  call {site.name} -> {site.target} "
                         f"({accuracy})")
    lines.append("instances: " + " ".join(sorted(program.instances)))
    return "\n".join(lines)


def _diagnostics_of(exc: Exception) -> Diagnostics:
    """Wrap a resolution failure into the collector shape."""
    collected = getattr(exc, "diagnostics", None)
    if isinstance(collected, Diagnostics):
        return collected
    fallback = Diagnostics()
    if isinstance(exc, ReproError):
        fallback.error(str(exc))
    else:
        fallback.error(f"import failed: {exc!r}")
    return fallback


def _checked_resolve(target, extras: Sequence[Transform] = ()):
    """``(program | None, diagnostics)`` for one validation pass.

    ``program`` is None only when the target does not compile; a
    compiled program may still carry config-space errors.
    """
    from repro.analysis import config_space_diagnostics

    try:
        program = resolve_program(target, extras)
    except ReproError as exc:
        return None, _diagnostics_of(exc)
    return program, config_space_diagnostics(program)


def check(target, extras: Sequence[Transform] = ()) -> Diagnostics:
    """Run declaration, compile and config-space validation; return
    the diagnostics.

    Returns an *empty* collector when the program is clean.  A dead
    tunable or an unreachable instance is an error like any other.
    Library errors that predate the batched-diagnostics machinery are
    wrapped into a single-entry collector, so callers always get the
    same shape back.
    """
    return _checked_resolve(target, extras)[1]


def check_example_file(path) -> tuple[Diagnostics, int]:
    """Import one example file and validate its declarations.

    Importing the module runs every module-level ``@transform``
    declaration through the batched-diagnostics lowering; each
    module-level :class:`Transform` is then compiled with the others as
    extras (so cross-transform call sites resolve), and every
    zero-argument ``-> Transform`` factory is built and compiled too.
    Returns ``(diagnostics, targets_checked)`` — an import failure
    outside the declaration machinery is reported as a single entry
    rather than raised, matching :func:`check`'s shape.
    """
    try:
        targets = load_example_targets(path)
    except Exception as exc:  # import-time breakage is a failure too
        return _diagnostics_of(exc), 0
    diagnostics = Diagnostics()
    for _, target, extras in targets:
        diagnostics.extend(check(target, extras))
    return diagnostics, len(targets)


def _check_examples(directory, log: Callable[[str], None],
                    payload: "dict | None" = None) -> int:
    prefix = os.path.basename(os.path.normpath(directory))
    failures = 0
    for path in example_files(directory):
        label = f"{prefix}/{os.path.basename(path)}"
        diagnostics, count = check_example_file(path)
        if payload is not None:
            payload[label] = {
                "ok": not diagnostics,
                "transforms": count,
                "diagnostics": [d.render() for d in diagnostics]}
        if diagnostics:
            failures += 1
            if payload is None:
                log(f"{label}: FAILED")
                for line in diagnostics.render().splitlines():
                    log(f"  {line}")
            continue
        if payload is None:
            noun = "declaration" if count == 1 else "declarations"
            log(f"{label}: ok ({count} {noun})")
    return failures


def _check_main(names, example_dirs, json_mode: bool,
                log: Callable[[str], None]) -> int:
    payload: dict = {"targets": {}}
    failures = 0
    for name in names:
        program, diagnostics = _checked_resolve(name)
        if json_mode:
            entry: dict = {"ok": not diagnostics,
                           "diagnostics": [d.render()
                                           for d in diagnostics]}
            if program is not None:
                entry.update(instances=len(program.instances),
                             parameters=len(program.space),
                             digest=program.space.digest())
            payload["targets"][name] = entry
        if diagnostics:
            failures += 1
            if not json_mode:
                log(f"{name}: FAILED")
                for line in diagnostics.render().splitlines():
                    log(f"  {line}")
            continue
        if not json_mode:
            log(f"{name}: ok ({len(program.instances)} instances, "
                f"{len(program.space)} parameters, digest "
                f"{program.space.digest()})")
    for directory in example_dirs:
        failures += _check_examples(
            directory, log,
            payload=payload["targets"] if json_mode else None)
    if json_mode:
        payload["failures"] = failures
        log(json.dumps(payload, indent=2, sort_keys=True))
    return failures


def _pop_flag_values(args: list, flag: str,
                     log: Callable[[str], None]) -> "tuple[bool, list]":
    """Remove every ``flag VALUE`` pair from args; ``(ok, values)``."""
    values: list = []
    while flag in args:
        index = args.index(flag)
        try:
            values.append(args[index + 1])
        except IndexError:
            log(f"{flag} requires an argument")
            return False, values
        del args[index:index + 2]
    return True, values


def main(argv: "Sequence[str] | None" = None,
         log: Callable[[str], None] = print) -> int:
    """Check every registered benchmark (or the named ones).

    The CI gate: prints one summary line per clean benchmark plus the
    full rendered diagnostics for a broken one; returns the number of
    failures.  Flags:

    * ``--examples <dir>`` — also check every ``.py`` file in ``dir``
      (module-level transform declarations), repeatable.
    * ``--json`` — machine-readable output.
    """
    from repro.suite.registry import all_benchmarks

    args = list(argv) if argv else []
    json_mode = "--json" in args
    args = [a for a in args if a != "--json"]
    ok, example_dirs = _pop_flag_values(args, "--examples", log)
    if not ok:
        return 1
    unknown = [a for a in args if a.startswith("--")]
    if unknown:
        log(f"unknown option {unknown[0]!r}")
        return 1
    return _check_main(args or sorted(all_benchmarks()), example_dirs,
                       json_mode, log)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    import sys
    sys.exit(main(sys.argv[1:]))
