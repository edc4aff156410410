"""Stacked trial execution: fuse same-shape request waves into one call.

The kernels under :mod:`repro.multigrid`, :mod:`repro.linalg` and
:mod:`repro.clustering` accept a leading batch dimension and compute
all slices in single vectorized numpy calls.  This module lets the
layers above actually use that: a wave of :class:`TrialRequest`s that
share a configuration and input signature is executed as ONE program
run on ``np.stack``-ed inputs, then unstacked into per-request
:class:`TrialOutcome`s indistinguishable from running each request
alone.

Eligibility is an opt-in pledge: the program's root transform must
declare ``batchable=True`` (see :class:`repro.lang.transform.Transform`),
promising that rules accept one leading batch dimension, execution
never consults the trial seed, control flow is identical across
slices, and recorded cost scales exactly by the batch size.  Because
every cost term in the pledged suites is an integer-valued float, the
stacked run's total cost divided by the batch size equals each scalar
run's cost *exactly* — the per-request ``cost`` objective survives
stacking bit-for-bit.

:func:`run_batch_stacked` is the one dispatch path for every trial
batch — tuning, serving and shadowing alike.  Stacking is refused
(falling back to the backend's per-request ``run_batch``) whenever
the pledge cannot be honoured mechanically: non-``cost`` objectives
(wall-clock is a property of the fused call, not of any one request),
mismatched input signatures, groups of one, outputs that do not carry
the batch dimension, or any trial failure inside the fused call
(per-request failure attribution requires scalar runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, MutableMapping, Sequence

import numpy as np

from repro.runtime.backends.base import (
    TRIAL_FAILURES,
    ExecutionBackend,
    TrialOutcome,
    TrialRequest,
)
from repro.runtime.timing import WallTimer

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["is_batchable", "stack_signature", "execute_stacked",
           "run_batch_stacked"]

#: Input values treated as "plain scalars" for signature purposes:
#: requests may only fuse when their non-array inputs are equal.
_SCALAR_TYPES = (bool, int, float, str, bytes, type(None))

#: Smallest same-signature group that runs as one fused call; a group
#: of one gains nothing from stacking.
MIN_GROUP_SIZE = 2


def is_batchable(program: "CompiledProgram") -> bool:
    """True when the program's root transform pledges batchability."""
    return bool(getattr(program.root_transform, "batchable", False))


def stack_signature(request: TrialRequest,
                    program: "CompiledProgram | None" = None
                    ) -> tuple | None:
    """Hashable fusion key for a request, or ``None`` if unfusable.

    Two requests may be stacked only when they agree on configuration
    (by digest), input size, every array input's shape and dtype, and
    every scalar input's value.  Inputs of any other type make the
    request unfusable (it runs through the scalar dispatch).

    When ``program`` is given and the request's configuration names a
    working precision (a ``precision()`` tunable on the root
    transform), floating array inputs sign with the *configured* dtype
    instead of their own: the executor casts them to that dtype anyway,
    so mixed-input-dtype waves under one float32 config fuse into one
    float32 stack (``np.stack`` upcasting followed by the executor
    cast is bit-identical to the scalar path).  Configs that differ in
    precision never fuse regardless — the digest covers the precision
    entry.
    """
    configured: str | None = None
    if program is not None:
        from repro.errors import ConfigError
        try:
            dtype = program.configured_dtype(request.config, request.n)
        except ConfigError:
            return None
        if dtype is not None:
            configured = dtype.str
    items: list[tuple] = []
    for key in sorted(request.inputs):
        value = request.inputs[key]
        if isinstance(value, np.ndarray):
            dtype_str = value.dtype.str
            if configured is not None and \
                    np.issubdtype(value.dtype, np.floating):
                dtype_str = configured
            items.append((key, "array", value.shape, dtype_str))
        elif isinstance(value, _SCALAR_TYPES):
            items.append((key, "scalar", value))
        else:
            return None
    return (request.digest, float(request.n), tuple(items))


def execute_stacked(program: "CompiledProgram",
                    requests: Sequence[TrialRequest], *,
                    objective: str = "cost",
                    cost_limit: float | None = None,
                    collect_outputs: bool = False
                    ) -> list[TrialOutcome] | None:
    """Run a fused wave as one stacked execution.

    All requests must share a :func:`stack_signature`.  Returns aligned
    outcomes, or ``None`` when the fused call cannot stand in for the
    scalar runs (a trial failure, or outputs missing the batch
    dimension) — callers then fall back to per-request dispatch.
    """
    batch = len(requests)
    if batch == 0:
        return []
    first = requests[0]
    stacked_inputs: dict[str, Any] = {}
    for key, value in first.inputs.items():
        if isinstance(value, np.ndarray):
            stacked_inputs[key] = np.stack(
                [request.inputs[key] for request in requests])
        else:
            stacked_inputs[key] = value
    limit = None if cost_limit is None else cost_limit * batch
    with WallTimer() as timer:
        try:
            result = program.execute(stacked_inputs, first.n,
                                     first.config, seed=first.seed,
                                     cost_limit=limit)
        except TRIAL_FAILURES:
            return None
    for value in result.outputs.values():
        if not (isinstance(value, np.ndarray) and value.ndim >= 1
                and value.shape[0] == batch):
            return None
    value = result.metrics.objective(objective) / batch
    wall = timer.elapsed / batch
    outcomes: list[TrialOutcome] = []
    for index, request in enumerate(requests):
        sliced = {name: array[index]
                  for name, array in result.outputs.items()}
        try:
            accuracy = program.accuracy_of(sliced, request.inputs)
        except TRIAL_FAILURES:
            return None
        outcomes.append(TrialOutcome(
            objective=float(value), accuracy=float(accuracy),
            failed=False, wall_time=wall,
            outputs=sliced if collect_outputs else None,
            reads=result.reads))
    return outcomes


def run_batch_stacked(program: "CompiledProgram",
                      requests: Sequence[TrialRequest],
                      backend: ExecutionBackend, *,
                      objective: str = "cost",
                      cost_limit: float | None = None,
                      collect_outputs: bool = False,
                      counters: MutableMapping[str, int] | None = None
                      ) -> list[TrialOutcome]:
    """Execute ``requests``, fusing same-signature groups.

    Groups of at least :data:`MIN_GROUP_SIZE` requests sharing a
    :func:`stack_signature` run as single stacked calls; everything
    else — unfusable requests, single requests, and any group whose
    fused call declined — goes to ``backend.run_batch`` in one
    positional batch, under the same objective, cost limit and
    outputs flag.  Outcomes are always aligned with ``requests``.

    ``counters`` (when given) receives ``stacked_calls`` and
    ``stacked_requests`` increments for observability.
    """
    requests = list(requests)
    if (objective != "cost" or not is_batchable(program)
            or len(requests) < MIN_GROUP_SIZE):
        return backend.run_batch(program, requests, objective=objective,
                                 cost_limit=cost_limit,
                                 collect_outputs=collect_outputs)
    groups: dict[tuple, list[int]] = {}
    residual: list[int] = []
    for index, request in enumerate(requests):
        signature = stack_signature(request, program)
        if signature is None:
            residual.append(index)
        else:
            groups.setdefault(signature, []).append(index)
    outcomes: list[TrialOutcome | None] = [None] * len(requests)
    for indices in groups.values():
        if len(indices) < MIN_GROUP_SIZE:
            residual.extend(indices)
            continue
        wave = [requests[i] for i in indices]
        fused = execute_stacked(program, wave, objective=objective,
                                cost_limit=cost_limit,
                                collect_outputs=collect_outputs)
        if fused is None:
            residual.extend(indices)
            continue
        if counters is not None:
            counters["stacked_calls"] = counters.get("stacked_calls", 0) + 1
            counters["stacked_requests"] = (
                counters.get("stacked_requests", 0) + len(indices))
        for position, outcome in zip(indices, fused):
            outcomes[position] = outcome
    if residual:
        residual.sort()
        settled = backend.run_batch(
            program, [requests[i] for i in residual],
            objective=objective, cost_limit=cost_limit,
            collect_outputs=collect_outputs)
        for position, outcome in zip(residual, settled):
            outcomes[position] = outcome
    return outcomes  # type: ignore[return-value]
