"""Compiled programs.

A :class:`CompiledProgram` bundles every transform reachable from a
root transform, an :class:`Instance` for each (transform, accuracy bin)
pair — the paper represents "each requested accuracy ... as a separate
type" (Section 4.2) — plus the parameter space describing every tunable
in every instance.  Executing the program walks the root instance's
schedule, resolving each algorithmic choice site and tunable from a
:class:`~repro.config.configuration.Configuration` at the current input
size.  Every context reads the configuration through one
:class:`~repro.config.configuration.RecordingConfig`, so each result
names the config values its execution read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.compiler.choice_graph import ChoiceGroup
from repro.config.configuration import Configuration, RecordingConfig
from repro.config.parameters import ParameterSpace
from repro.errors import CompileError, ExecutionError
from repro.lang.context import ExecutionContext
from repro.lang.rule import Rule
from repro.lang.transform import Transform
from repro.rng import LazyGenerator
from repro.runtime.timing import CostAccumulator, Metrics
from repro.runtime.trace import ExecutionTrace

__all__ = ["Instance", "CompiledProgram", "ExecutionResult"]


@dataclass(frozen=True)
class Instance:
    """One (transform, accuracy-bin) instantiation.

    ``bin_target`` is ``None`` for the root's "main" instance and for
    fixed-accuracy transforms; otherwise it is the nominal accuracy
    target of the bin.  All configuration keys of the instance are
    namespaced under ``prefix`` ( ``"<transform>@<bin>"`` ).
    """

    prefix: str
    transform: Transform
    bin_target: float | None
    schedule: tuple[ChoiceGroup, ...]

    def key(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def choice_key(self, site: str) -> str:
        return f"{self.prefix}.rule.{site}"

    def call_bin_key(self, site: str) -> str:
        return f"{self.prefix}.call.{site}.bin"

    def order_key(self, rule_name: str) -> str:
        return f"{self.prefix}.order.{rule_name}"


@dataclass
class ExecutionResult:
    """Outputs and measurements from one program execution.

    The last three fields are populated only on the tuned-program path
    (:meth:`repro.runtime.executor.TunedProgram.run`): which accuracy
    bin actually ran, whether dynamic bin lookup *fell back* to the
    most accurate bin because no bin satisfied the requested accuracy
    (the target is unmet by construction), and how many
    ``verify_accuracy`` escalations preceded this result.

    ``reads`` lists every config read of the execution, in order, as
    ``(name, n, value)`` (see
    :class:`~repro.config.configuration.RecordingConfig`).
    """

    outputs: dict[str, Any]
    metrics: Metrics
    trace: ExecutionTrace
    reads: tuple = ()
    bin_target: float | None = None
    fallback: bool = False
    escalations: int = 0

    @property
    def cost(self) -> float:
        return self.metrics.cost


def _rebuild_from_provenance(provenance: tuple[str, str]
                             ) -> "CompiledProgram":
    """Reconstruct a pickled-by-provenance program (see ``__reduce__``)."""
    kind, name = provenance
    if kind == "benchmark":
        from repro.suite.registry import compiled_benchmark
        return compiled_benchmark(name)[0]
    if kind == "factory":
        from repro.compiler.compile import compiled_from_factory
        return compiled_from_factory(name)[0]
    raise CompileError(f"unknown program provenance {provenance!r}")


class CompiledProgram:
    """An executable program: instances + parameter space."""

    def __init__(self, root: str, transforms: Mapping[str, Transform],
                 instances: Mapping[str, Instance], space: ParameterSpace):
        self.root = root
        self._transforms = dict(transforms)
        self._instances = dict(instances)
        self.space = space
        #: How to rebuild this program in another process:
        #: ``("benchmark", "poisson")`` (set by
        #: :meth:`repro.suite.registry.BenchmarkSpec.compile`) or
        #: ``("factory", "module:qualname")`` (set by
        #: :func:`repro.compiler.compile.compiled_from_factory`).  When
        #: present, pickling serialises this marker instead of the
        #: transform graph, whose rule closures are not picklable.
        self.provenance: tuple[str, str] | None = None
        if f"{root}@main" not in self._instances:
            raise CompileError(f"missing root instance {root}@main")

    def __reduce__(self):
        if self.provenance is not None:
            return (_rebuild_from_provenance, (self.provenance,))
        # Fall back to default pickling: works whenever every rule
        # function is a picklable module-level callable.
        return super().__reduce__()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def transform(self, name: str) -> Transform:
        try:
            return self._transforms[name]
        except KeyError:
            raise CompileError(f"program has no transform {name!r}") from None

    def instance(self, prefix: str) -> Instance:
        try:
            return self._instances[prefix]
        except KeyError:
            raise CompileError(f"program has no instance {prefix!r}") from None

    @property
    def transforms(self) -> dict[str, Transform]:
        return dict(self._transforms)

    @property
    def instances(self) -> dict[str, Instance]:
        return dict(self._instances)

    @property
    def root_transform(self) -> Transform:
        return self._transforms[self.root]

    def default_config(self) -> Configuration:
        return self.space.default_config()

    def random_config(self, rng: np.random.Generator) -> Configuration:
        return self.space.random_config(rng)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, inputs: Mapping[str, Any], n: float,
                config: Configuration, *, seed: int = 0,
                collect_trace: bool = False,
                cost_limit: float | None = None,
                reads: list | None = None) -> ExecutionResult:
        """Run the root instance on ``inputs`` of size ``n``.

        ``cost_limit`` aborts executions whose accumulated cost exceeds
        the budget (raising
        :class:`~repro.runtime.timing.CostLimitExceeded`), the cost
        model's analogue of a trial timeout.  ``reads`` (a list, when
        given) receives the execution's config reads as they happen,
        so a caller still has them when the execution raises.
        """
        cost = CostAccumulator(limit=cost_limit)
        trace = ExecutionTrace(enabled=collect_trace)
        # Derived only if a rule reads ctx.rng (see LazyGenerator).
        rng = LazyGenerator(seed, "execute", self.root)
        recorder = RecordingConfig(config, reads)
        outputs = self.run_instance(
            f"{self.root}@main", dict(inputs), n, recorder, rng, cost,
            trace, depth=0)
        return ExecutionResult(outputs=outputs,
                               metrics=Metrics(cost=cost.units), trace=trace,
                               reads=tuple(recorder.reads))

    def accuracy_of(self, outputs: Mapping[str, Any],
                    inputs: Mapping[str, Any]) -> float:
        """Root transform's accuracy metric on an input/output pair."""
        metric = self.root_transform.accuracy_metric
        if metric is None:
            raise CompileError(
                f"root transform {self.root!r} has no accuracy metric")
        return metric.compute(outputs, inputs)

    def instance_dtype(self, instance: Instance,
                       config: Configuration | RecordingConfig,
                       n: float) -> np.dtype | None:
        """Configured working dtype of ``instance``, or None.

        None when the transform declares no ``precision()`` tunable or
        the configuration predates the precision dimension (a stored
        artifact tuned before the tunable existed) — both mean "leave
        input dtypes alone".
        """
        param = instance.transform.precision_param
        if param is None:
            return None
        key = instance.key(param.name)
        if key not in config:
            return None
        return param.dtype(config.lookup(key, n))

    def configured_dtype(self, config: Configuration, n: float
                         ) -> np.dtype | None:
        """Root instance's configured working dtype, or None.

        The stacked-execution grouping key: requests whose configs
        agree on this dtype (and everything else in the digest) may be
        fused into one stacked call.
        """
        return self.instance_dtype(
            self.instance(f"{self.root}@main"), config, float(n))

    # ------------------------------------------------------------------
    # Instance execution (also entered by ExecutionContext.call)
    # ------------------------------------------------------------------
    def run_instance(self, prefix: str, inputs: dict[str, Any], n: float,
                     config: RecordingConfig, rng: LazyGenerator,
                     cost: CostAccumulator, trace: ExecutionTrace,
                     depth: int) -> dict[str, Any]:
        instance = self.instance(prefix)
        transform = instance.transform
        missing = [name for name in transform.inputs if name not in inputs]
        if missing:
            raise ExecutionError(
                f"instance {prefix!r}: missing inputs {missing}")
        dtype = self.instance_dtype(instance, config, n)
        ctx = ExecutionContext(self, instance, config, n, rng, cost, trace,
                               depth, dtype=dtype)
        data: dict[str, Any] = {name: inputs[name]
                                for name in transform.inputs}
        if dtype is not None:
            # The precision() contract: cast this instance's floating
            # array inputs to the configured working dtype.  Each
            # instance resolves its own namespaced entry when sub-calls
            # re-enter here, so per-transform mixed precision (float32
            # smoothing under float64 residual checks) falls out.
            cast = []
            for name, value in data.items():
                if isinstance(value, np.ndarray) and \
                        value.dtype.kind == "f" and value.dtype != dtype:
                    data[name] = value.astype(dtype)
                    cast.append(name)
            if trace.enabled:  # dtype.name alone costs microseconds
                trace.record("precision", depth, instance=prefix,
                             dtype=dtype.name, cast=tuple(cast), n=n)
        for group in instance.schedule:
            if group.is_choice_site:
                index = ctx.choose(group.site_name, len(group.rules))
            else:
                index = 0
            self._run_rule(ctx, group.rules[index], data)
        return {name: data[name] for name in transform.outputs}

    def _run_rule(self, ctx: ExecutionContext, rule: Rule,
                  data: dict[str, Any]) -> None:
        if rule.granularity == "whole":
            args = [data[name] for name in rule.inputs]
            result = rule.fn(ctx, *args)
            if len(rule.outputs) == 1:
                data[rule.outputs[0]] = result
            else:
                if not isinstance(result, tuple) or \
                        len(result) != len(rule.outputs):
                    raise ExecutionError(
                        f"rule {rule.name!r} must return a tuple of "
                        f"{len(rule.outputs)} outputs")
                for name, value in zip(rule.outputs, result):
                    data[name] = value
            return

        # Column granularity: the compiler synthesizes the outer loop
        # over output columns; its direction is a switch tunable.
        out_name = rule.outputs[0]
        transform = ctx.instance.transform
        allocator = transform.allocators.get(out_name)
        if allocator is None:
            raise ExecutionError(
                f"column rule {rule.name!r} needs an allocator for "
                f"{out_name!r}")
        out = allocator(ctx, data)
        columns = range(out.shape[1])
        order = ctx.config.lookup(ctx.instance.order_key(rule.name), ctx.n)
        if order == "backward":
            columns = reversed(columns)
        args = [data[name] for name in rule.inputs]
        for j in columns:
            rule.fn(ctx, j, out, *args)
        data[out_name] = out
