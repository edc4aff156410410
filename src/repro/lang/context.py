"""Execution contexts.

Rule bodies receive an :class:`ExecutionContext` as their first
argument.  The context is the runtime face of the variable-accuracy
extensions: it resolves tunable parameters and algorithmic choices from
the active configuration (at the current input size), iterates
``for_enough`` loops, dispatches sub-calls to other transforms at
compiler-selected accuracy bins, accounts costs into the shared cost
model and records trace events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.errors import ExecutionError, LanguageError
from repro.rng import LazyGenerator
from repro.runtime.timing import CostAccumulator
from repro.runtime.trace import ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.program import CompiledProgram, Instance
    from repro.config.configuration import RecordingConfig

__all__ = ["ExecutionContext", "MAX_CALL_DEPTH"]

#: Hard bound on sub-call nesting.  Candidate configurations can drive
#: unbounded recursion (e.g. a multigrid config that always recurses);
#: the autotuner relies on this guard to classify them as failures.
MAX_CALL_DEPTH = 96


class ExecutionContext:
    """Runtime services available to rule bodies."""

    __slots__ = ("program", "instance", "config", "n", "_rng", "cost",
                 "trace", "depth", "dtype", "cost_scale")

    def __init__(self, program: "CompiledProgram", instance: "Instance",
                 config: "RecordingConfig", n: float,
                 rng: LazyGenerator, cost: CostAccumulator,
                 trace: ExecutionTrace, depth: int = 0,
                 dtype: np.dtype | None = None):
        self.program = program
        self.instance = instance
        #: The execution's one view of its configuration: every read
        #: through it is recorded (see RecordingConfig).
        self.config = config
        self.n = n
        #: Shared by every context of one execution.
        self._rng = rng
        self.cost = cost
        self.trace = trace
        self.depth = depth
        #: Configured working precision of this instance, or None when
        #: the transform declares no precision() tunable.
        self.dtype = dtype
        # Abstract cost counts float64-equivalent operations; narrower
        # dtypes cost proportionally less (the bandwidth model —
        # float32 moves half the bytes).  itemsize/8 is an exact power
        # of two, so scaled integer op counts stay exact and the
        # stacked path's cost/B recovery remains bit-identical.
        self.cost_scale = 1.0 if dtype is None else dtype.itemsize / 8.0

    @property
    def rng(self) -> np.random.Generator:
        """The execution's seeded generator, derived on first read."""
        return self._rng.get()

    # ------------------------------------------------------------------
    # Tunable access
    # ------------------------------------------------------------------
    def param(self, name: str) -> Any:
        """Value of tunable ``name`` at the current input size."""
        return self.config.lookup(self.instance.key(name), self.n)

    def choose(self, site: str, num_choices: int | None = None) -> int:
        """Resolve algorithmic choice site ``site`` to a rule index."""
        index = int(self.config.lookup(self.instance.choice_key(site), self.n))
        if num_choices is not None and not 0 <= index < num_choices:
            raise ExecutionError(
                f"choice site {site!r} resolved to {index}, outside "
                f"[0, {num_choices})")
        self.trace.record("choice", self.depth,
                          instance=self.instance.prefix, site=site,
                          index=index, n=self.n)
        return index

    def for_enough(self, name: str) -> range:
        """Iterate a ``for enough`` loop.

        The iteration count is the compiler-set accuracy variable
        ``name`` at the current input size.  Bodies may ``break`` early
        (e.g. on reaching a fixed point), exactly as in the paper's
        kmeans example.
        """
        count = int(self.param(name))
        if count < 0:
            raise ExecutionError(
                f"for_enough {name!r}: negative iteration count {count}")
        return range(count)

    @property
    def accuracy_target(self) -> float | None:
        """Nominal accuracy target of the executing instance.

        ``None`` for the root ("main") instance, whose accuracy is
        whatever the tuned configuration achieves.
        """
        return self.instance.bin_target

    # ------------------------------------------------------------------
    # Sub-calls
    # ------------------------------------------------------------------
    def call(self, site_name: str, inputs: Mapping[str, Any], n: float
             ) -> dict[str, Any]:
        """Invoke the transform behind declared call site ``site_name``.

        For variable-accuracy callees with no explicit accuracy the
        target accuracy bin is read from the configuration (the
        compiler's ``either...or`` expansion); with an explicit
        accuracy the matching bin is used directly.  Returns the
        callee's outputs as a dict.
        """
        if self.depth + 1 > MAX_CALL_DEPTH:
            raise ExecutionError(
                f"call depth exceeded {MAX_CALL_DEPTH} at site "
                f"{site_name!r} of {self.instance.prefix!r}")
        transform = self.instance.transform
        try:
            site = transform.call_sites[site_name]
        except KeyError:
            raise LanguageError(
                f"transform {transform.name!r} has no call site "
                f"{site_name!r} (declared: "
                f"{sorted(transform.call_sites)})") from None
        callee = self.program.transform(site.target)
        if not callee.is_variable_accuracy:
            bin_label = "main"
            bin_target = None
        elif site.accuracy is not None:
            bin_target = callee.bin_for_accuracy(site.accuracy)
            bin_label = callee.bin_label(bin_target)
        else:
            key = self.instance.call_bin_key(site_name)
            index = int(self.config.lookup(key, self.n))
            bins = callee.accuracy_bins
            if not 0 <= index < len(bins):
                raise ExecutionError(
                    f"call site {site_name!r}: bin index {index} outside "
                    f"[0, {len(bins)})")
            bin_target = bins[index]
            bin_label = callee.bin_label(bin_target)
        self.trace.record("subcall", self.depth,
                          instance=self.instance.prefix, site=site_name,
                          target=callee.name, bin=bin_label, n=n)
        return self.program.run_instance(
            f"{callee.name}@{bin_label}", dict(inputs), n, self.config,
            self._rng, self.cost, self.trace, self.depth + 1)

    # ------------------------------------------------------------------
    # Accounting / tracing
    # ------------------------------------------------------------------
    def add_cost(self, units: float) -> None:
        """Account ``units`` of abstract work (see runtime.timing).

        Units are float64-equivalent operations; under a configured
        narrower precision they are scaled down by the dtype's relative
        width (×1.0 when no precision is configured — bit-exact).
        """
        self.cost.add(units * self.cost_scale)

    def record(self, kind: str, **payload: Any) -> None:
        """Record a domain-specific trace event (e.g. a relaxation)."""
        self.trace.record(kind, self.depth,
                          instance=self.instance.prefix, **payload)
