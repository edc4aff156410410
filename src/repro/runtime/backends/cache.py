"""Trial-result cache keyed by what an execution read.

The paper's Section 5.4 optimisation copies a parent's trial results to
a child "in cases where the behavior of the algorithm is unchanged".
This cache makes that test exact and applies it to every trial of a
tuning run.  An execution depends only on its inputs, its input size,
its seed and the config values it reads: inputs and seed are fixed by
``(n, trial index, base seed)``, and every config read goes through a
:class:`~repro.config.configuration.RecordingConfig` and rides back on
the outcome as ``(name, n, value)``.  (The REP1xx purity gate keeps
rules from depending on anything else.)  So an outcome measured once
under the deterministic cost objective replays for *any*
configuration that resolves every recorded read to the same value —
a mutation of a tunable no rule reads at ``n``, a child that picks
the same rule, or a re-run of the whole tune.

A bucket ``(program, n, trial index, base seed, objective, cost
limit)`` holds the outcomes measured there.  Executions in one bucket
are deterministic in the values they read, so their read sequences
share a prefix up to the first read whose value differs: the bucket is
a tree branching on read values, and a lookup resolves one read per
level.

The store is JSON on disk: human-inspectable and safe to delete at any
time (it is only ever a performance hint).  In memory it is unbounded:
every distinct measurement a run takes stays available to the rest of
that run.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, Mapping

from repro.config.configuration import Configuration
from repro.runtime.backends.base import TrialOutcome

__all__ = ["TrialCache"]

_FORMAT_VERSION = 2

#: ``(program, n, trial index, base seed, objective, cost limit)``.
Bucket = tuple


class _Read:
    """A tree node: the next config read, and one branch per value."""

    __slots__ = ("name", "n", "branches")

    def __init__(self, name: str, n: float | None,
                 branches: dict[tuple, Any]):
        self.name = name
        self.n = n
        self.branches = branches


def _branch(value: Any) -> tuple:
    # The type joins the key: 1, 1.0 and True compare equal but may
    # steer a rule differently.
    return (type(value), value)


class TrialCache:
    """Maps a bucket and the values an execution read to its outcome.

    ``path`` (optional) names a JSON file loaded at construction when
    present and written by :meth:`save`.  ``hits`` / ``misses`` count
    :meth:`get` lookups for instrumentation and benchmarks.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._buckets: dict[Bucket, _Read | TrialOutcome] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and os.path.exists(self.path):
            # The cache is only ever a performance hint: a truncated or
            # corrupt store must never abort tuning.  (An explicit
            # load() call still raises.)
            try:
                self.load(self.path)
            except (OSError, ValueError):
                self._buckets.clear()

    # ------------------------------------------------------------------
    # Buckets
    # ------------------------------------------------------------------
    @staticmethod
    def bucket(n: float, trial_index: int, base_seed: int, *,
               program: str = "",
               objective: str = "cost",
               cost_limit: float | None = None) -> Bucket:
        """Where one paired trial's outcomes live.

        ``program`` (a caller-chosen namespace; the harness uses
        "<root transform>/<input generator>"), ``objective`` and
        ``cost_limit`` namespace the bucket: different programs never
        alias, cost-model and wall-clock measurements never masquerade
        as each other, and an outcome measured under one trial budget
        (whose pass/fail status depends on it) is never replayed under
        another.  ``n`` is kept as a full-precision float, so nearby
        large sizes never collide, on disk too.

        One caveat the bucket cannot see: *editing code* — a program's
        rule implementations, or an input generator's body — while
        keeping its name.  Delete the cache file after changing
        benchmark code.
        """
        limit = None if cost_limit is None else float(cost_limit)
        return (program, float(n), int(trial_index), int(base_seed),
                objective, limit)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, bucket: Bucket, config: Configuration
            ) -> TrialOutcome | None:
        """The outcome an execution under ``config`` would produce, if
        a recorded execution read values ``config`` resolves the same."""
        node = self._buckets.get(bucket)
        try:
            while isinstance(node, _Read):
                node = node.branches.get(
                    _branch(config.resolve(node.name, node.n)))
        except TypeError:  # an unhashable config value matches nothing
            node = None
        if node is None:
            self.misses += 1
        else:
            self.hits += 1
        return node

    def put(self, bucket: Bucket, outcome: TrialOutcome) -> None:
        """Record ``outcome`` under the reads it carries.

        Storing the same reads again replaces the outcome.  Reads that
        contradict the tree (a different next read after the same
        values, which a deterministic execution cannot produce) replace
        the branch they contradict.  An outcome that read an unhashable
        value is not stored (nothing changes before the last step).
        """
        reads = outcome.reads
        holder: dict = self._buckets
        slot: Any = bucket
        index = len(reads)
        try:
            for position, (name, n, value) in enumerate(reads):
                node = holder.get(slot)
                if not (isinstance(node, _Read) and node.name == name
                        and node.n == n):
                    index = position
                    break
                holder, slot = node.branches, _branch(value)
            subtree: _Read | TrialOutcome = outcome
            for name, n, value in reversed(reads[index:]):
                subtree = _Read(name, n, {_branch(value): subtree})
            holder[slot] = subtree
        except TypeError:
            pass  # the cache is a hint; tuning must go on

    def _outcomes(self) -> Iterator[tuple[Bucket, TrialOutcome]]:
        """Every stored ``(bucket, outcome)``."""
        for bucket, root in self._buckets.items():
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, _Read):
                    stack.extend(node.branches.values())
                else:
                    yield bucket, node

    def __len__(self) -> int:
        return sum(1 for _ in self._outcomes())

    def clear(self) -> None:
        self._buckets.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        buckets: dict[Bucket, list] = {}
        for bucket, outcome in self._outcomes():
            buckets.setdefault(bucket, []).append(outcome.to_json())
        return {"version": _FORMAT_VERSION,
                "buckets": [{"bucket": list(bucket), "outcomes": outcomes}
                            for bucket, outcomes in buckets.items()]}

    def from_json(self, data: Any) -> None:
        """Merge a serialised cache into this one."""
        if not isinstance(data, Mapping) or \
                data.get("version") != _FORMAT_VERSION:
            return  # silently skip incompatible stores; it's only a hint
        buckets = data.get("buckets")
        if not isinstance(buckets, list):
            return
        for entry in buckets:
            try:
                program, n, trial_index, base_seed, objective, limit = \
                    entry["bucket"]
                bucket = self.bucket(n, trial_index, base_seed,
                                     program=str(program),
                                     objective=str(objective),
                                     cost_limit=limit)
                payloads = list(entry["outcomes"])
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed buckets; the store is a hint
            for payload in payloads:
                try:
                    self.put(bucket, TrialOutcome.from_json(payload))
                except (KeyError, TypeError, ValueError):
                    continue  # skip malformed entries; the store is a hint

    def save(self, path: str | os.PathLike | None = None) -> str:
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("TrialCache.save() needs a path (none was "
                             "given at construction)")
        tmp = f"{target}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)
        os.replace(tmp, target)
        return target

    def load(self, path: str | os.PathLike) -> None:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            self.from_json(json.load(handle))

    def __repr__(self) -> str:
        return (f"TrialCache({len(self)} entries, "
                f"hits={self.hits}, misses={self.misses})")
