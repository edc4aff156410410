"""The batch trial-execution protocol.

"The dominant time requirement of our autotuner is testing candidate
algorithms by running them on training inputs" (Section 5.5.1).  The
seed reproduction executed every trial serially, one at a time, deep
inside the genetic loop.  This module separates *what* to run from
*how* to run it:

* a :class:`TrialRequest` names one measurement — a candidate
  configuration, an input size, a paired trial index, the derived
  execution seed, and the training inputs;
* a :class:`TrialOutcome` carries back the measurement — objective
  (the execution's operation count), accuracy, failure flag and the
  config values the execution read;
* an :class:`ExecutionBackend` maps a batch of requests to outcomes.

Backends MUST return outcomes positionally aligned with the request
batch, and every outcome must depend only on its request (never on
batch order or concurrency), so that serial and parallel backends are
interchangeable bit-for-bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.config.configuration import Configuration
from repro.errors import ReproError
from repro.runtime.timing import CostLimitExceeded

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["TrialRequest", "TrialOutcome", "ExecutionBackend",
           "config_digest", "execute_trial"]

#: Exceptions that mark a trial as *failed* rather than aborting the
#: tuning run (runaway recursion, cost budget, numerical blow-ups).
TRIAL_FAILURES = (ReproError, CostLimitExceeded, FloatingPointError,
                  ZeroDivisionError, np.linalg.LinAlgError, ValueError,
                  OverflowError)


def config_digest(config: Configuration) -> str:
    """Stable content digest of a configuration (see
    :attr:`Configuration.digest`, which computes it once per value)."""
    return config.digest


@dataclass(frozen=True)
class TrialRequest:
    """One trial to run: a work unit a backend can execute anywhere.

    ``seed`` is the fully derived execution seed, so a worker needs no
    access to the harness's base seed.  ``inputs`` are the paired
    training inputs for ``(n, trial_index)``.  Everything here is
    picklable provided the program's inputs are (numpy arrays and
    scalars are).
    """

    n: float
    trial_index: int
    seed: int
    config: Configuration
    inputs: Mapping[str, Any]

    @property
    def digest(self) -> str:
        """The configuration's content digest (:attr:`Configuration.digest`),
        computed only when a reader asks for it."""
        return self.config.digest


@dataclass(frozen=True)
class TrialOutcome:
    """The measurement a backend hands back for one request.

    ``outputs`` is populated only when the batch was run with
    ``collect_outputs=True`` (the serving path, which must return the
    program's actual results, not just measurements).  It is never
    serialised: cached outcomes replay measurements, not payloads.

    ``error`` names the exception behind ``failed=True`` (type and
    message), so callers can tell a broken program from a genuine
    accuracy miss.

    ``reads`` is the execution's config reads, ``(name, n, value)`` in
    order (up to the raise, for a failed trial): the trial cache
    replays this outcome for any configuration that resolves every
    read to the same value.
    """

    objective: float
    accuracy: float
    failed: bool = False
    outputs: Mapping[str, Any] | None = None
    error: str | None = None
    reads: tuple = ()

    def to_json(self) -> dict:
        payload = {"objective": self.objective,
                   "accuracy": self.accuracy,
                   "failed": self.failed,
                   "reads": [list(read) for read in self.reads]}
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TrialOutcome":
        objective = float(data["objective"])  # non-mappings raise here
        error = data.get("error")
        reads = tuple((str(name), None if n is None else float(n), value)
                      for name, n, value in data.get("reads", ()))
        return cls(objective=objective,
                   accuracy=float(data["accuracy"]),
                   failed=bool(data.get("failed", False)),
                   error=str(error) if error is not None else None,
                   reads=reads)


def execute_trial(program: "CompiledProgram", request: TrialRequest, *,
                  cost_limit: float | None = None,
                  collect_outputs: bool = False) -> TrialOutcome:
    """Run one trial.  The single execution kernel shared by every
    backend (and, in the process backend, by every worker).

    With ``collect_outputs=True`` the program's outputs ride back on
    the outcome — the serving path needs them; the tuner never does.
    """
    outputs = None
    error = None
    reads: list = []
    try:
        result = program.execute(request.inputs, request.n,
                                 request.config, seed=request.seed,
                                 cost_limit=cost_limit, reads=reads)
        accuracy = program.accuracy_of(result.outputs, request.inputs)
        value = result.metrics.cost
        failed = False
        if collect_outputs:
            outputs = result.outputs
    except TRIAL_FAILURES as exc:
        metric = program.root_transform.accuracy_metric
        value = float("inf")
        accuracy = metric.worst_value()
        failed = True
        error = f"{type(exc).__name__}: {exc}"
    return TrialOutcome(objective=float(value), accuracy=float(accuracy),
                        failed=failed, outputs=outputs, error=error,
                        reads=tuple(reads))


class ExecutionBackend(ABC):
    """Maps batches of trial requests to outcomes.

    Implementations may run the batch serially or across processes;
    the contract is positional alignment and
    per-request determinism (see module docstring).
    """

    #: Short identifier used in logs and backend specs.
    name: str = "abstract"

    @abstractmethod
    def run_batch(self, program: "CompiledProgram",
                  requests: Sequence[TrialRequest], *,
                  cost_limit: float | None = None,
                  collect_outputs: bool = False) -> list[TrialOutcome]:
        """Execute ``requests`` and return aligned outcomes.

        ``collect_outputs=True`` additionally ships each execution's
        outputs back on its outcome (the serving path).
        """

    def close(self) -> None:
        """Release worker resources (pools).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
