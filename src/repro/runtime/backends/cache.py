"""Content-addressed trial-result cache.

The paper's Section 5.4 optimisation copies a parent's trial results to
a child "in cases where the behavior of the algorithm is unchanged".
This cache generalises the idea across candidates, processes and whole
tuning runs: a trial's outcome is fully determined by the candidate
configuration's content digest, the input size, the paired trial index
and the harness base seed (inputs and execution seeds are derived from
exactly those), so any measurement taken once under the deterministic
cost objective never needs to be taken again — by the ablation
benchmark, by a re-run with a tweaked population, or by a mutation
that lands on a previously-seen configuration.

The store is JSON on disk: human-inspectable, appendable, and safe to
delete at any time (it is only ever a performance hint).  In memory it
is unbounded: every distinct measurement a run takes stays available
to the rest of that run.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

from repro.runtime.backends.base import TrialOutcome, TrialRequest

__all__ = ["TrialCache"]

_FORMAT_VERSION = 1


class TrialCache:
    """Maps ``(config digest, n, trial index, base seed)`` to outcomes.

    ``path`` (optional) names a JSON file loaded at construction when
    present and written by :meth:`save`.  ``hits`` / ``misses`` count
    :meth:`get` lookups for instrumentation and benchmarks.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._entries: dict[str, TrialOutcome] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and os.path.exists(self.path):
            # The cache is only ever a performance hint: a truncated or
            # corrupt store must never abort tuning.  (An explicit
            # load() call still raises.)
            try:
                self.load(self.path)
            except (OSError, ValueError):
                self._entries.clear()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def key(digest: str, n: float, trial_index: int, base_seed: int, *,
            program: str = "",
            objective: str = "cost",
            cost_limit: float | None = None) -> str:
        """The content address of one measurement.

        ``program`` (a caller-chosen namespace; the harness uses
        "<root transform>/<input generator>"), ``objective`` and
        ``cost_limit`` namespace the key: different programs whose
        configurations happen to serialise identically never alias,
        cost-model and wall-clock measurements never masquerade as each
        other, and an outcome measured under one trial budget (whose
        pass/fail status depends on it) is never replayed under
        another.  ``n`` uses ``repr`` for full float precision —
        nearby large sizes must not collide.

        One caveat the key cannot see: *editing code* — a program's
        rule implementations, or an input generator's body — while
        keeping its name.  Delete the cache file after changing
        benchmark code.
        """
        limit = "none" if cost_limit is None else repr(float(cost_limit))
        return (f"{program}|{digest}|n={float(n)!r}|t={int(trial_index)}"
                f"|s={int(base_seed)}|{objective}|lim={limit}")

    @classmethod
    def key_for(cls, request: TrialRequest, base_seed: int, *,
                program: str = "",
                objective: str = "cost",
                cost_limit: float | None = None) -> str:
        return cls.key(request.digest, request.n, request.trial_index,
                       base_seed, program=program, objective=objective,
                       cost_limit=cost_limit)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> TrialOutcome | None:
        outcome = self._entries.get(key)
        if outcome is None:
            self.misses += 1
        else:
            self.hits += 1
        return outcome

    def put(self, key: str, outcome: TrialOutcome) -> None:
        self._entries[key] = outcome

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"version": _FORMAT_VERSION,
                "entries": {key: outcome.to_json()
                            for key, outcome in self._entries.items()}}

    def from_json(self, data: Mapping[str, object]) -> None:
        """Merge a serialised cache into this one (existing keys win)."""
        if data.get("version") != _FORMAT_VERSION:
            return  # silently skip incompatible stores; it's only a hint
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return
        for key, payload in entries.items():
            try:
                outcome = TrialOutcome.from_json(payload)
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed entries; the store is a hint
            self._entries.setdefault(key, outcome)

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
        return (f"TrialCache({len(self._entries)} entries, "
                f"hits={self.hits}, misses={self.misses})")
