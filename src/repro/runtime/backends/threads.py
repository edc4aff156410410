"""Thread-pool backend.

Trials spend most of their time in numpy kernels that release the GIL,
so a thread pool already overlaps useful work without any pickling.
Outcomes are gathered in submission order, so results are independent
of scheduling; each trial's execution RNG is derived from its request
seed, so concurrency cannot perturb measurements under the cost
objective.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.runtime.backends.base import (
    ExecutionBackend,
    TrialOutcome,
    TrialRequest,
    execute_trial,
)

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["ThreadPoolBackend"]


def default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


class ThreadPoolBackend(ExecutionBackend):
    """Runs a batch across a persistent thread pool."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or default_workers()
        self._lock = threading.Lock()  # guards: _pool (lazy creation)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="trial-backend")
            return self._pool

    def run_batch(self, program: "CompiledProgram",
                  requests: Sequence[TrialRequest], *,
                  objective: str = "cost",
                  cost_limit: float | None = None,
                  collect_outputs: bool = False) -> list[TrialOutcome]:
        if len(requests) <= 1:  # skip pool overhead for singletons
            return [execute_trial(program, request, objective=objective,
                                  cost_limit=cost_limit,
                                  collect_outputs=collect_outputs)
                    for request in requests]
        pool = self._ensure_pool()
        futures = [pool.submit(execute_trial, program, request,
                               objective=objective, cost_limit=cost_limit,
                               collect_outputs=collect_outputs)
                   for request in requests]
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"ThreadPoolBackend(max_workers={self.max_workers})"
