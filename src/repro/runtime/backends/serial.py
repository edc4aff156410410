"""The serial backend: today's behaviour, one trial at a time."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.runtime.backends.base import (
    ExecutionBackend,
    TrialOutcome,
    TrialRequest,
    execute_trial,
)

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Runs each request in submission order on the calling thread.

    The default backend; the reference semantics every parallel backend
    must reproduce bit-for-bit.
    """

    name = "serial"

    def run_batch(self, program: "CompiledProgram",
                  requests: Sequence[TrialRequest], *,
                  cost_limit: float | None = None,
                  collect_outputs: bool = False) -> list[TrialOutcome]:
        return [execute_trial(program, request, cost_limit=cost_limit,
                              collect_outputs=collect_outputs)
                for request in requests]
