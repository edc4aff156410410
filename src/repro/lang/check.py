"""Program introspection (``describe``), declaration checking
(``check``) and static analysis (``analyze``) — plus the
``python -m repro.lang`` CI gate.

``describe()`` renders what the compiler extracted from a declaration:
the algorithmic choice sites, every tunable with its domain and
guided-mutation hints, the accuracy bins, the call graph, the per-bin
instances and the search-space size — the human-readable face of the
training-info file.

``check()`` runs the full declaration + compile validation over a
transform, a factory, or a registered benchmark and returns the
:class:`~repro.lang.diagnostics.Diagnostics` collector instead of
raising, so tools can report every problem in one pass.  ``analyze()``
goes further: it runs the :mod:`repro.analysis` whole-program contract
analyzer over the compiled program and returns its
:class:`~repro.analysis.findings.AnalysisReport`.

Running this module as a script checks every registered suite
benchmark and exits non-zero if any declaration regressed;
``--analyze`` switches it to the static-analysis gate (fails on errors
and non-baselined warnings), ``--json`` emits machine-readable results
in either mode.
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

__all__ = ["describe", "check", "check_example_file", "analyze", "main"]


def _describe_tunable(param) -> str:
    from repro.config.parameters import (PrecisionParam, ScalarParam,
                                         SizeValueParam, SwitchParam)
    if isinstance(param, SizeValueParam):
        kind = ("accuracy variable" if param.is_accuracy_variable
                else "size value")
        hint = {1: ", direction +1", -1: ", direction -1"}.get(
            param.accuracy_direction, "")
        return (f"{kind} in [{param.lo:g}, {param.hi:g}], "
                f"default {param.default:g}{hint}")
    if isinstance(param, ScalarParam):
        return (f"cutoff in [{param.lo:g}, {param.hi:g}], "
                f"default {param.default:g}")
    # PrecisionParam subclasses SwitchParam, so it must be tested first.
    if isinstance(param, PrecisionParam):
        return (f"precision over {list(param.choices)!r}, "
                f"default {param.default!r} (executor casts inputs)")
    if isinstance(param, SwitchParam):
        return f"switch over {list(param.choices)!r}"
    return repr(param)


def describe(target, extras: Sequence[Transform] = ()) -> str:
    """Human-readable summary of a program's tuning surface.

    Shows, per transform: data flow, accuracy metric and bins, every
    algorithmic choice site with its candidate rules, every tunable
    with its domain, and the declared call sites; then the instance
    list, the config-space digest and the search-space size estimate.
    ``target`` is anything :func:`check` accepts.
    """
    from repro.analysis.configspace import render_search_space

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
    """``(program | None, diagnostics)`` for one validation pass."""
    try:
        program = resolve_program(target, extras)
    except ReproError as exc:
        return None, _diagnostics_of(exc)
    return program, Diagnostics()


def check(target, extras: Sequence[Transform] = ()) -> Diagnostics:
    """Run declaration + compile validation; return the diagnostics.

    Returns an *empty* collector when the program is clean.  Library
    errors that predate the batched-diagnostics machinery are wrapped
    into a single-entry collector, so callers always get the same
    shape back.
    """
    return _checked_resolve(target, extras)[1]


def analyze(target, extras: Sequence[Transform] = ()):
    """Run the whole-program static analyzer; return its report.

    ``target`` is anything :func:`check` accepts.  Declaration or
    compile failures raise (run :func:`check` first when the program
    may not even build); the returned
    :class:`~repro.analysis.findings.AnalysisReport` collects every
    contract finding without raising.
    """
    from repro.analysis import analyze_program

    return analyze_program(resolve_program(target, extras))


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
    from repro.analysis.findings import SCHEMA_VERSION

    payload: dict = {"mode": "check",
                     "schema_version": SCHEMA_VERSION, "targets": {}}
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


def _analysis_targets(names, example_dirs):
    """Yield ``(label, program | None, diagnostics)`` per target.

    Benchmarks first, then every declaration target of every example
    file — module-level transforms (compiled as root with their
    siblings as extras) and ``-> Transform`` factories, exactly the
    set :func:`check_example_file` validates.
    """
    for name in names:
        program, diagnostics = _checked_resolve(name)
        yield name, program, diagnostics
    for directory in example_dirs:
        prefix = os.path.basename(os.path.normpath(directory))
        for path in example_files(directory):
            label = f"{prefix}/{os.path.basename(path)}"
            try:
                targets = load_example_targets(path)
            except Exception as exc:
                yield label, None, _diagnostics_of(exc)
                continue
            for target_name, target, extras in targets:
                sub = (label if len(targets) == 1
                       else f"{label}:{target_name}")
                program, diagnostics = _checked_resolve(target, extras)
                yield sub, program, diagnostics


def _analyze_main(names, example_dirs, baseline_path: "str | None",
                  json_mode: bool, log: Callable[[str], None]) -> int:
    from repro.analysis import (ERROR, INFO, SCHEMA_VERSION, WARNING,
                                analyze_program, load_baseline,
                                partition_findings, stale_entries)

    try:
        baseline = load_baseline(baseline_path) if baseline_path else []
    except ReproError as exc:
        log(str(exc))
        return 1
    payload: dict = {"mode": "analyze",
                     "schema_version": SCHEMA_VERSION, "targets": {}}
    failures = 0
    matched: set = set()
    order = {ERROR: 0, WARNING: 1, INFO: 2}
    for label, program, diagnostics in _analysis_targets(
            names, example_dirs):
        if program is None:
            failures += 1
            if json_mode:
                payload["targets"][label] = {
                    "ok": False,
                    "diagnostics": [d.render() for d in diagnostics]}
            else:
                log(f"{label}: FAILED (does not compile)")
                for line in diagnostics.render().splitlines():
                    log(f"  {line}")
            continue
        report = analyze_program(program)
        active, suppressed = partition_findings(report, baseline,
                                                matched=matched)
        # Deterministic ordering: severity first for the human eye,
        # then (file, line, code) so reruns diff cleanly.
        active = sorted(active, key=lambda f: (order.get(f.severity, 3),
                                               f.sort_key()))
        suppressed = sorted(suppressed, key=lambda f: f.sort_key())
        gating = [f for f in active if f.severity in (ERROR, WARNING)]
        info = [f for f in active if f.severity == INFO]
        errors = len([f for f in gating if f.severity == ERROR])
        warnings = len(gating) - errors
        if json_mode:
            payload["targets"][label] = {
                "ok": not gating,
                "errors": errors,
                "warnings": warnings,
                "findings": [f.to_json() for f in sorted(
                    active, key=lambda f: f.sort_key())],
                "suppressed": [f.to_json() for f in suppressed]}
            if gating:
                failures += 1
            continue
        if gating:
            failures += 1
            log(f"{label}: FAILED ({errors} errors, "
                f"{warnings} warnings)")
        else:
            note = (f", {len(suppressed)} baselined warnings"
                    if suppressed else "")
            log(f"{label}: ok (0 errors, 0 warnings{note})")
        for finding in gating + info:
            log(f"  {finding.render()}")
    stale = stale_entries(baseline, matched)
    if stale:
        failures += 1
        if not json_mode:
            noun = ("entry matches" if len(stale) == 1
                    else "entries match")
            log(f"baseline {baseline_path}: {len(stale)} stale "
                f"{noun} no current finding — the debt excused there "
                f"is gone; delete the entries to keep the ratchet "
                f"tight:")
            for entry in stale:
                log(f"  {json.dumps(entry, sort_keys=True)}")
    if json_mode:
        payload["stale_baseline"] = stale
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
    """Check or analyze every registered benchmark (or the named ones).

    The CI gate: by default runs declaration checking and prints one
    summary line per clean benchmark plus the full rendered diagnostics
    for a broken one; returns the number of failures.  Flags:

    * ``--examples <dir>`` — also process every ``.py`` file in ``dir``
      (module-level transform declarations), repeatable.
    * ``--analyze`` — run the :mod:`repro.analysis` static contract
      analyzer instead; a target fails on any error or non-baselined
      warning (info findings never gate).
    * ``--baseline <file>`` — accepted-warnings JSON for ``--analyze``;
      entries matching no current finding are *stale* and fail the
      gate.
    * ``--json`` — machine-readable output in either mode.
    """
    from repro.suite.registry import all_benchmarks

    args = list(argv) if argv else []
    analyze_mode = "--analyze" in args
    json_mode = "--json" in args
    args = [a for a in args if a not in ("--analyze", "--json")]
    ok, baselines = _pop_flag_values(args, "--baseline", log)
    if not ok:
        return 1
    ok, example_dirs = _pop_flag_values(args, "--examples", log)
    if not ok:
        return 1
    if baselines and not analyze_mode:
        log("--baseline only applies with --analyze")
        return 1
    names = args or sorted(all_benchmarks())
    if analyze_mode:
        return _analyze_main(names, example_dirs,
                             baselines[-1] if baselines else None,
                             json_mode, log)
    return _check_main(names, example_dirs, json_mode, log)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    import sys
    sys.exit(main(sys.argv[1:]))
