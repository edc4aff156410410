"""Whole-program static contract analyzer.

The DSL accumulated contracts that nothing checked statically: rule
bodies must be pure and deterministic (the TrialCache and process
backends assume it), substrate kernels must preserve working dtypes
(the ``precision()`` tunable assumes it), ``batchable=True`` must only
reach stacked-capable kernels (stacked execution assumes it), and every
declared tunable should actually steer something.  This package checks
all of them from a compiled program plus the Python source of its rules
and reachable kernels — no execution, no inputs needed:

1. :mod:`~repro.analysis.purity` — purity/determinism lint (REP1xx)
2. :mod:`~repro.analysis.dtypeflow` — dtype-flow lint (REP2xx)
3. :mod:`~repro.analysis.pledges` — pledge verification (REP3xx)
4. :mod:`~repro.analysis.configspace` — config-space analyses
   (REP4xx, REP001)

Entry points: :func:`analyze_program` here, or
``python -m repro.lang --analyze`` on the command line (wired into CI
over the whole suite and every example).
Severities gate differently: errors always fail, warnings fail unless
recorded in a reviewed baseline file
(:mod:`~repro.analysis.baseline`), info never fails.
"""

from __future__ import annotations

from repro.analysis.callgraph import (
    CallGraph,
    TransformFunctions,
    transform_functions,
)
from repro.analysis.configspace import (
    lint_config_space,
    render_search_space,
    search_space_size,
)
from repro.analysis.dtypeflow import lint_dtype_flow
from repro.analysis.findings import (
    ERROR,
    FINDING_CODES,
    INFO,
    SCHEMA_VERSION,
    WARNING,
    AnalysisReport,
    Finding,
)
from repro.analysis.baseline import (load_baseline, partition_findings,
                                     stale_entries)
from repro.analysis.pledges import verify_pledges
from repro.analysis.purity import lint_purity

__all__ = ["analyze_program", "AnalysisReport",
           "Finding", "FINDING_CODES", "ERROR", "WARNING", "INFO",
           "SCHEMA_VERSION", "search_space_size", "render_search_space",
           "load_baseline", "partition_findings", "stale_entries"]


def analyze_program(program) -> AnalysisReport:
    """Run every analysis pass over a compiled program.

    ``program`` is a :class:`~repro.compiler.program.CompiledProgram`;
    the passes walk the Python source behind its rules, accuracy
    metrics, allocators and every function they transitively reach.
    Returns an :class:`AnalysisReport`; nothing is raised on findings —
    gating is the caller's policy (see ``repro.lang.check``).
    """
    graph = CallGraph()
    report = AnalysisReport()
    per_transform: dict[str, TransformFunctions] = {}
    reachable_all = []
    seen_rules: set = set()
    for name in sorted(program.transforms):
        transform = program.transform(name)
        functions = transform_functions(transform)
        per_transform[name] = functions
        roots = [(rule_name, fn) for rule_name, fn in functions.rules]
        roots += [(None, fn)
                  for fn in functions.metrics + functions.allocators]
        # Pass 1: purity of everything reachable from this transform.
        lint_purity(graph, name, roots, report)
        # Pass 3: pledge verification against the kernel registry.
        verify_pledges(graph, transform, roots, report)
        # Collect the value-path reachable set for the dtype pass:
        # rules and allocators, but NOT accuracy metrics — metrics run
        # outside the precision() cast and deliberately compute in
        # full float64.
        value_roots = [fn for _, fn in functions.rules]
        value_roots += functions.allocators
        for info in graph.reachable(value_roots):
            if info.fn.__code__ not in seen_rules:
                seen_rules.add(info.fn.__code__)
                reachable_all.append(info)
    # Pass 2: dtype flow over every reachable substrate function.
    lint_dtype_flow(graph, reachable_all, report)
    # Pass 4: config-space analyses on the compiled artifacts.
    lint_config_space(program, graph, per_transform, report)
    return report

