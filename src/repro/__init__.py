"""repro — reproduction of "Language and Compiler Support for
Auto-Tuning Variable-Accuracy Algorithms" (Ansel et al., CGO 2011).

The package embeds the paper's PetaBricks variable-accuracy extensions
as a Python DSL, compiles transforms into choice-aware executable
programs, and autotunes them with the paper's structured genetic
algorithm.  See README.md for a quickstart and DESIGN.md for the full
system inventory.

Public API highlights
---------------------
- :mod:`repro.api` — **the documented lifecycle API**: ``Project``
  (declare + tune + deploy, with backend spec strings and settings
  presets) and ``Service`` (policy-driven serving with drift detection
  and background retuning).  Start here.
- :func:`repro.lang.transform`, :func:`repro.lang.rule`,
  :func:`repro.lang.accuracy_metric`, :func:`repro.lang.call` — the
  declarative class-based DSL (lowers to
  :class:`repro.lang.Transform`, the imperative form).
- :func:`repro.lang.accuracy_variable`, :func:`repro.lang.for_enough`,
  :func:`repro.lang.cutoff`, :func:`repro.lang.switch` — tunables
  (names inferred inside a DSL class body).
- :func:`repro.lang.check`, :func:`repro.lang.describe` — batched
  declaration diagnostics (dead tunables and unreachable instances
  included, via :mod:`repro.analysis`) and program introspection.
- :func:`repro.compiler.compile_program` — compile to an executable
  program + training info.
- :class:`repro.autotuner.Autotuner` — the accuracy-aware genetic tuner.
- :class:`repro.runtime.executor.TunedProgram` — run tuned programs,
  with optional ``verify_accuracy`` runtime checks.
- :mod:`repro.serving` — versioned tuned artifacts, the on-disk
  artifact store, and the batched accuracy-aware serving engine.
- :mod:`repro.suite` — the paper's six benchmarks.
- :mod:`repro.experiments` — regenerate Figures 6-8 and Table 1.
"""

from repro.lang import (
    AccuracyMetric,
    CallSite,
    Diagnostics,
    Transform,
    accuracy_metric,
    accuracy_variable,
    allocator,
    call,
    check,
    cutoff,
    describe,
    for_enough,
    rule,
    scaled_by,
    switch,
    transform,
)
from repro.compiler import compile_program
from repro.errors import (
    AccuracyError,
    CompileError,
    ConfigError,
    ExecutionError,
    LanguageError,
    ReproError,
    TrainingError,
)

__version__ = "1.0.0"

__all__ = [
    "Transform",
    "CallSite",
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
    "scaled_by",
    "check",
    "describe",
    "Diagnostics",
    "compile_program",
    "ReproError",
    "LanguageError",
    "CompileError",
    "ConfigError",
    "ExecutionError",
    "TrainingError",
    "AccuracyError",
    "__version__",
]
