"""Process-pool backend.

Chunks the request batch — a few strided chunks per worker, sized from
the batch — and maps it over a persistent
``concurrent.futures.ProcessPoolExecutor``.  The compiled program is
pickled once per pool (workers receive it through the initializer, not
with every chunk); suite programs pickle by *provenance* — workers
recompile the named benchmark — so closures inside ``build()``
functions never travel over the wire (see
:meth:`repro.compiler.program.CompiledProgram.__reduce__`).

Work units are the picklable ``(config, inputs, n, seed)`` payload of
each :class:`TrialRequest`; outcomes come back aligned with the batch.
This backend is bit-identical to :class:`~repro.runtime.backends.serial.SerialBackend`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

from repro.runtime.backends.base import (
    ExecutionBackend,
    TrialOutcome,
    TrialRequest,
    execute_trial,
)

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram

__all__ = ["ProcessPoolBackend"]

#: Worker-process global installed by :func:`_init_worker`.  Per
#: process on purpose: each worker keeps its own copy, and the parent
#: process never reads it.
_WORKER_PROGRAM: "CompiledProgram" | None = None


def default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


def _init_worker(program_bytes: bytes) -> None:
    global _WORKER_PROGRAM
    _WORKER_PROGRAM = pickle.loads(program_bytes)


def _run_chunk(requests: Sequence[TrialRequest],
               cost_limit: float | None,
               collect_outputs: bool = False) -> list[TrialOutcome]:
    assert _WORKER_PROGRAM is not None, "worker initializer did not run"
    return [execute_trial(_WORKER_PROGRAM, request,
                          cost_limit=cost_limit,
                          collect_outputs=collect_outputs)
            for request in requests]


class ProcessPoolBackend(ExecutionBackend):
    """Runs trial batches across worker processes.

    ``start_method`` defaults to the platform's multiprocessing default
    (``fork`` on Linux).  Each batch ships in chunks sized to give
    every worker a few tasks, which bounds pickling overhead.

    The backend keeps one persistent pool *per compiled program* (at
    most ``max_pools``; least-recently-used pools are closed beyond
    that), so callers that alternate programs — a serving engine with
    mixed traffic, a benchmark sweep — do not tear down and respawn
    warm workers on every switch.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None, *,
                 start_method: str | None = None,
                 max_pools: int = 4):
        if max_pools < 1:
            raise ValueError("max_pools must be >= 1")
        self.max_workers = max_workers or default_workers()
        self.start_method = start_method
        self.max_pools = max_pools
        self._lock = threading.Lock()  # guards: _pools
        # Pools keyed by id(program).  Each entry holds a strong
        # reference to its program, so an id cannot be recycled by
        # garbage collection while its pool is alive.
        self._pools: OrderedDict[
            int, tuple["CompiledProgram", ProcessPoolExecutor]] = \
            OrderedDict()

    # ------------------------------------------------------------------
    def _ensure_pool(self, program: "CompiledProgram") -> ProcessPoolExecutor:
        doomed: list[ProcessPoolExecutor] = []
        with self._lock:
            entry = self._pools.get(id(program))
            if entry is not None:
                self._pools.move_to_end(id(program))
                return entry[1]
            try:
                program_bytes = pickle.dumps(program)
            except Exception as exc:
                raise TypeError(
                    f"ProcessPoolBackend requires a picklable program; "
                    f"pickling {program.root!r} failed ({exc!r}).  Suite "
                    f"programs compiled via BenchmarkSpec.compile() pickle "
                    f"by provenance; ad-hoc programs need module-level "
                    f"rule functions, or use SerialBackend.") from exc
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method else None)
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context,
                initializer=_init_worker, initargs=(program_bytes,))
            self._pools[id(program)] = (program, pool)
            while len(self._pools) > self.max_pools:
                _, (_, old_pool) = self._pools.popitem(last=False)
                doomed.append(old_pool)
        for old_pool in doomed:  # shut down outside the lock
            old_pool.shutdown(wait=True)
        return pool

    def _drop(self, program: "CompiledProgram",
              pool: ProcessPoolExecutor) -> None:
        """Forget ``pool`` if it is still ``program``'s pool, so the
        next batch spawns a fresh one."""
        with self._lock:
            entry = self._pools.get(id(program))
            if entry is not None and entry[1] is pool:
                del self._pools[id(program)]

    def _chunks(self, requests: Sequence[TrialRequest]
                ) -> list[list[TrialRequest]]:
        """A few chunks per worker, which balances load without
        drowning the queue in pickling round-trips.  Strided, request
        ``i`` in chunk ``i % k``: a batch lists each candidate's trials
        together, so contiguous chunks would hand one slow candidate's
        trials to one worker."""
        size = max(1, len(requests) // (self.max_workers * 4))
        count = -(-len(requests) // size)
        return [list(requests[i::count]) for i in range(count)]

    # ------------------------------------------------------------------
    def run_batch(self, program: "CompiledProgram",
                  requests: Sequence[TrialRequest], *,
                  cost_limit: float | None = None,
                  collect_outputs: bool = False) -> list[TrialOutcome]:
        if len(requests) <= 1:
            # Adaptive-comparison top-ups arrive one at a time; process
            # dispatch would be pure overhead and changes no outcome.
            return [execute_trial(program, request,
                                  cost_limit=cost_limit,
                                  collect_outputs=collect_outputs)
                    for request in requests]
        chunks = self._chunks(requests)
        for attempt in range(2):
            pool = self._ensure_pool(program)
            try:
                futures = [pool.submit(_run_chunk, chunk, cost_limit,
                                       collect_outputs)
                           for chunk in chunks]
            except RuntimeError:
                # A concurrent _ensure_pool LRU-evicted (shut down)
                # this pool between our lookup and submit.  Drop the
                # stale entry and retry once on a fresh pool; trials
                # are deterministic, so re-running chunks is safe.
                if attempt:
                    raise
                self._drop(program, pool)
                continue
            outcomes: list[TrialOutcome | None] = [None] * len(requests)
            try:
                for index, future in enumerate(futures):
                    # Chunk ``index`` holds requests index, index + k, ...
                    outcomes[index::len(futures)] = future.result()
            except BrokenProcessPool:
                # A worker died mid-batch.  The batch fails, but the
                # dead pool must not fail every later batch too.
                self._drop(program, pool)
                pool.shutdown(wait=False)
                raise
            return outcomes  # type: ignore[return-value]
        raise AssertionError("unreachable")  # the loop returns or raises

    def close(self) -> None:
        with self._lock:
            pools = [pool for _, pool in self._pools.values()]
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(max_workers={self.max_workers})"
