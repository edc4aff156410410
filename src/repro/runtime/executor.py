"""Running tuned programs, with optional runtime accuracy verification.

A :class:`TunedProgram` is the deployable artifact of autotuning: the
compiled program plus one configuration per accuracy bin (the
discretized optimal frontier of Section 5.5.4), optionally annotated
with the :class:`~repro.runtime.guarantees.StatisticalGuarantee`
computed for each bin from training trials.  Users request a target
accuracy; the dynamic bin lookup of Section 4.2 (shared with the
serving engine via :mod:`repro.runtime.policy`) selects the cheapest
bin that satisfies it.

The ``verify_accuracy`` keyword (Section 3.2) maps to
``run(..., verify=True)``: the output's accuracy is checked with the
program's metric and, on failure, "the algorithm can be retried with
the next higher level of accuracy"; an :class:`~repro.errors.
AccuracyError` is raised when the most accurate bin still fails.

Persistence goes through the versioned
:class:`~repro.serving.artifact.TunedArtifact` format, so guarantees
and provenance travel with the deployable; :meth:`TunedProgram.save`
and :meth:`TunedProgram.load` are thin wrappers over it.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.compiler.program import CompiledProgram, ExecutionResult
from repro.config.configuration import Configuration
from repro.errors import AccuracyError, ConfigError, TrainingError
from repro.runtime.guarantees import StatisticalGuarantee
from repro.runtime.policy import (
    BinDecision,
    RequestPlan,
    escalation_ladders,
    plan_request,
    select_bin,
)

__all__ = ["TunedProgram"]


class TunedProgram:
    """A compiled program with tuned per-bin configurations, each
    checked against the program's parameter space when built."""

    def __init__(self, program: CompiledProgram,
                 bin_configs: Mapping[float, Configuration],
                 guarantees: Mapping[float, StatisticalGuarantee] | None
                 = None):
        self.program = program
        self.metric = program.root_transform.accuracy_metric
        # Bins sorted least -> most accurate, as in the transform.
        declared = program.root_transform.accuracy_bins
        unknown = sorted(set(float(t) for t in bin_configs)
                         - set(declared))
        if unknown:
            raise TrainingError(
                f"configurations for accuracy bins "
                f"{[f'{t:g}' for t in unknown]} that {program.root!r} "
                f"never declared (declared bins: "
                f"{[f'{t:g}' for t in declared]})")
        self.bin_configs = {target: bin_configs[target]
                            for target in declared if target in bin_configs}
        if not self.bin_configs:
            raise TrainingError(
                f"tuned program for {program.root!r} has no bins")
        # An out-of-space config would serve nonsense, not fail; checked
        # here, no path that registers or swaps in a program skips it.
        for target, config in self.bin_configs.items():
            try:
                program.space.validate(config)
            except ConfigError as exc:
                raise ConfigError(
                    f"tuned program for {program.root!r}, bin "
                    f"{target:g}: {exc}") from exc
        self.guarantees: dict[float, StatisticalGuarantee] = {
            float(target): guarantee
            for target, guarantee in (guarantees or {}).items()
            if float(target) in self.bin_configs}
        # Fixed per program: built here, read by every request.  Plans
        # are not memoized by requested accuracy, which clients choose.
        self._bins = tuple(self.bin_configs)
        self._ladders = escalation_ladders(self._bins, self.metric)

    # ------------------------------------------------------------------
    @property
    def bins(self) -> tuple[float, ...]:
        return self._bins

    def plan(self, accuracy: float | None = None,
             bin_target: float | None = None) -> RequestPlan:
        """:func:`~repro.runtime.policy.plan_request` over this
        program's bins, with the escalation ladders built once."""
        return plan_request(self._bins, self.metric, accuracy, bin_target,
                            ladders=self._ladders)

    def select(self, requested: float) -> BinDecision:
        """Dynamic bin lookup with an explicit fallback signal.

        ``decision.fallback`` is True when no tuned bin satisfies
        ``requested`` and the most accurate bin was chosen instead —
        the request's target is unmet by construction.
        """
        return select_bin(self.bins, self.metric, requested)

    def config_for_accuracy(self, requested: float
                            ) -> tuple[float, Configuration]:
        """Dynamic bin lookup: cheapest bin satisfying ``requested``.

        Falls back to the most accurate bin when nothing satisfies;
        use :meth:`select` to observe the fallback explicitly, or
        ``run(...)`` whose result records it.
        """
        decision = self.select(requested)
        return decision.target, self.bin_configs[decision.target]

    def guarantee_for(self, target: float) -> StatisticalGuarantee | None:
        """The training-time statistical guarantee for a bin, if any."""
        return self.guarantees.get(float(target))

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, Any], n: float, *,
            accuracy: float | None = None,
            bin_target: float | None = None,
            verify: bool = False,
            seed: int = 0,
            collect_trace: bool = False) -> ExecutionResult:
        """Execute at the requested accuracy.

        Exactly one of ``accuracy`` (a free-form requested accuracy,
        resolved by dynamic bin lookup) or ``bin_target`` (an exact
        bin) may be given; with neither, the most accurate bin runs.
        With ``verify=True`` the accuracy metric is evaluated on the
        result and failing bins escalate to more accurate ones.

        The result records the chosen ``bin_target``, whether the
        lookup fell back to the most accurate bin because no bin
        satisfied ``accuracy`` (``result.fallback``), and how many
        verify escalations ran (``result.escalations``).
        """
        plan = self.plan(accuracy, bin_target)
        fallback = plan.fallback
        required = plan.required
        last_accuracy: float | None = None
        for escalations, target in enumerate(plan.ladder):
            config = self.bin_configs[target]
            result = self.program.execute(inputs, n, config, seed=seed,
                                          collect_trace=collect_trace)
            result.bin_target = target
            result.fallback = fallback
            result.escalations = escalations
            if not verify:
                return result
            achieved = self.program.accuracy_of(result.outputs, inputs)
            result.metrics.accuracy = achieved
            last_accuracy = achieved
            if self.metric.meets(achieved, required):
                return result
        raise AccuracyError(
            f"verify_accuracy failed: required {required:g}, best achieved "
            f"{last_accuracy!r} after trying bins {list(plan.ladder)}",
            achieved=last_accuracy, required=float(required))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_artifact(self, metadata: Mapping[str, Any] | None = None):
        """Package this program as a versioned, guarantee-carrying
        :class:`~repro.serving.artifact.TunedArtifact`."""
        from repro.serving.artifact import TunedArtifact
        return TunedArtifact.from_tuned(self, metadata=metadata)

    def save(self, path) -> None:
        self.to_artifact().save(path)

    @classmethod
    def load(cls, program: CompiledProgram, path) -> "TunedProgram":
        from repro.serving.artifact import TunedArtifact
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not (isinstance(data, dict) and "schema_version" in data):
            raise TrainingError(
                f"{path}: not a tuned artifact (no schema_version); the "
                f"flat {{bin: config}} format is no longer read, so "
                f"re-save the program with TunedProgram.save")
        return TunedArtifact.from_json(data).to_tuned(program)

    def __repr__(self) -> str:
        return (f"TunedProgram({self.program.root!r}, "
                f"bins={[f'{t:g}' for t in self.bins]})")
