"""Serving telemetry: rolling per-bin accuracy windows and drift
detection.

The paper's accuracy guarantees are *statistical* — estimated once,
off-line, from training trials (Section 3.3).  Once an artifact serves
live traffic, nothing in the original design checks that the training
distribution still resembles reality.  This module closes that gap:

* :class:`ServingTelemetry` keeps a bounded rolling window per
  ``(program, bin)`` of what serving actually observed — achieved
  accuracy, escalations, fallbacks, and errors;
* :class:`DriftDetector` re-runs the Section-3.3 statistical test over
  each *observed* window and flags bins whose live accuracy no longer
  supports the :class:`~repro.runtime.guarantees.StatisticalGuarantee`
  stored in the artifact — the signal that triggers a background
  retune (:class:`~repro.serving.controller.RetuneController`).

Request latency is not a telemetry concern: the front door stamps it
on every response and summarises it with :func:`latency_summary`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.lang.metrics import AccuracyMetric
from repro.runtime.guarantees import (
    StatisticalGuarantee,
    statistical_guarantee,
)

if TYPE_CHECKING:
    from repro.serving.engine import ServeResponse

__all__ = ["latency_summary", "BinSnapshot", "ServingTelemetry",
           "DriftEvent", "DriftDetector"]

#: Default bound on each (program, bin) rolling window.
DEFAULT_WINDOW = 512


def latency_summary(values: Sequence[float]
                    ) -> tuple[float, float, float]:
    """``(p50, p95, p99)`` of one latency window, sorted once.

    Nearest-rank percentiles: the ``ceil(f * N)``-th smallest value.
    Unlike interpolation this always returns an observed value, and
    unlike ``round()``-based ranking it never underestimates on ``.5``
    ties (banker's rounding rounds those *down* half the time).  An
    *empty* window — a front door before its first completed request —
    summarises to zeros instead of raising, so dashboards can always
    poll.
    """
    if not values:
        return (0.0, 0.0, 0.0)
    ordered = sorted(values)
    count = len(ordered)

    def rank(fraction: float) -> float:
        return ordered[max(1, min(count, math.ceil(fraction * count))) - 1]

    return (rank(0.50), rank(0.95), rank(0.99))


@dataclass(frozen=True)
class BinSnapshot:
    """Point-in-time view of one (program, bin) window."""

    program: str
    target: float
    samples: int          # accuracy observations currently in the window
    served: int           # lifetime ok responses through this bin
    errors: int           # lifetime error responses through this bin
    escalations: int      # lifetime escalations that *landed* here
    fallbacks: int        # lifetime fallback responses through this bin
    mean_accuracy: float | None
    worst_accuracy: float | None

    def __str__(self) -> str:
        acc = ("n/a" if self.mean_accuracy is None
               else f"{self.mean_accuracy:.4g}")
        return (f"{self.program}/bin {self.target:g}: {self.served} ok "
                f"{self.errors} err, mean accuracy {acc} over "
                f"{self.samples} samples, {self.fallbacks} fallbacks")


class _BinWindow:
    """Mutable rolling state behind one :class:`BinSnapshot`."""

    __slots__ = ("accuracies", "served", "errors", "escalations",
                 "fallbacks")

    def __init__(self, window: int):
        self.accuracies: deque[float] = deque(maxlen=window)
        self.served = 0
        self.errors = 0
        self.escalations = 0
        self.fallbacks = 0


class ServingTelemetry:
    """Thread-safe rolling windows of observed serving behaviour.

    One window per ``(program, bin target)``.  The front door feeds it
    every executed batch's responses through :meth:`record_batch` (a
    handful of deque appends per response, cheap enough for the
    steady-state serve path — measured by
    ``benchmarks/bench_adaptive.py``), so its per-bin counts add up to
    the door's :class:`~repro.serving.frontdoor.FrontDoorStats`.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("telemetry window must be >= 1")
        self.window = window
        self._lock = threading.Lock()  # guards: _bins
        self._bins: dict[tuple[str, float], _BinWindow] = {}

    # ------------------------------------------------------------------
    # Recording (the serve-path hot call)
    # ------------------------------------------------------------------
    def record_batch(self, responses: Iterable["ServeResponse"]) -> None:
        """Fold a batch of responses into their bins' windows under one
        lock acquisition.

        Each response counts in the window of the bin it settled at:
        served or error, its escalations, a fallback, and its achieved
        accuracy when it has one.  A response without a bin (a refusal
        that never executed) is skipped.
        """
        with self._lock:
            for response in responses:
                if response.bin_target is None:
                    continue
                key = (response.program, float(response.bin_target))
                entry = self._bins.get(key)
                if entry is None:
                    entry = self._bins[key] = _BinWindow(self.window)
                if response.ok:
                    entry.served += 1
                else:
                    entry.errors += 1
                entry.escalations += response.escalations
                if response.fallback:
                    entry.fallbacks += 1
                if response.achieved_accuracy is not None:
                    entry.accuracies.append(
                        float(response.achieved_accuracy))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def programs(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted({program for program, _ in self._bins}))

    def bins_for(self, program: str) -> tuple[float, ...]:
        with self._lock:
            return tuple(sorted(target for name, target in self._bins
                                if name == program))

    def accuracies(self, program: str, bin_target: float
                   ) -> tuple[float, ...]:
        """The current accuracy window for one bin (oldest first)."""
        with self._lock:
            entry = self._bins.get((program, float(bin_target)))
            return tuple(entry.accuracies) if entry is not None else ()

    def snapshot(self, program: str, bin_target: float) -> BinSnapshot:
        key = (program, float(bin_target))
        with self._lock:
            entry = self._bins.get(key)
            if entry is None:
                return BinSnapshot(program=program,
                                   target=float(bin_target),
                                   samples=0, served=0, errors=0,
                                   escalations=0, fallbacks=0,
                                   mean_accuracy=None,
                                   worst_accuracy=None)
            accuracies = list(entry.accuracies)
            served, errors = entry.served, entry.errors
            escalations, fallbacks = entry.escalations, entry.fallbacks
        mean = (sum(accuracies) / len(accuracies)
                if accuracies else None)
        worst = min(accuracies) if accuracies else None
        return BinSnapshot(
            program=program, target=float(bin_target),
            samples=len(accuracies), served=served, errors=errors,
            escalations=escalations, fallbacks=fallbacks,
            mean_accuracy=mean, worst_accuracy=worst)

    def snapshots(self, program: str | None = None) -> list[BinSnapshot]:
        with self._lock:
            keys = [key for key in self._bins
                    if program is None or key[0] == program]
        return [self.snapshot(name, target) for name, target in keys]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, program: str | None = None) -> None:
        """Drop windows — all of them, or one program's (after a
        hot-swap, so the new artifact is judged on its own traffic)."""
        with self._lock:
            if program is None:
                self._bins.clear()
            else:
                for key in [k for k in self._bins if k[0] == program]:
                    del self._bins[key]

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._bins)
        return f"ServingTelemetry({count} bins, window={self.window})"


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftEvent:
    """One bin whose live traffic no longer supports its guarantee."""

    program: str
    target: float
    observed: StatisticalGuarantee   # the *failed* re-test, live data
    stored: StatisticalGuarantee | None  # what training promised

    def __str__(self) -> str:
        return (f"drift: {self.program}/bin {self.target:g} observed "
                f"mean {self.observed.mean:.4g} (bound "
                f"{self.observed.bound:.4g} over "
                f"{self.observed.samples} samples) no longer meets "
                f"{self.target:g}")


class DriftDetector:
    """Re-tests stored guarantees against observed serving accuracy.

    For every bin that carries a training-time
    :class:`StatisticalGuarantee`, the detector recomputes the same
    one-sided confidence-bound test over the telemetry window.  A bin
    drifts when the observed bound stops meeting the bin target — the
    live distribution has moved enough that the off-line promise no
    longer holds.  Bins with fewer than ``min_samples`` observations
    are never flagged (small windows make noisy bounds).
    """

    def __init__(self, telemetry: ServingTelemetry, *,
                 min_samples: int = 16,
                 confidence: float = 0.9):
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        self.telemetry = telemetry
        self.min_samples = min_samples
        self.confidence = confidence

    def check_bin(self, program: str, target: float,
                  metric: AccuracyMetric,
                  stored: StatisticalGuarantee | None = None
                  ) -> DriftEvent | None:
        accuracies = self.telemetry.accuracies(program, target)
        if len(accuracies) < self.min_samples:
            return None
        observed = statistical_guarantee(accuracies, target, metric,
                                         self.confidence)
        if observed.holds:
            return None
        return DriftEvent(program=program, target=float(target),
                          observed=observed, stored=stored)

    def check(self, program: str, metric: AccuracyMetric,
              guarantees: Mapping[float, StatisticalGuarantee],
              bins: Iterable[float] | None = None) -> list[DriftEvent]:
        """Drift events for ``program``, least-accurate bin first.

        ``bins`` defaults to the guaranteed bins; bins without a stored
        guarantee are skipped (training never promised anything there).
        """
        targets = list(bins) if bins is not None else list(guarantees)
        events = []
        for target in targets:
            stored = guarantees.get(float(target))
            if stored is None or not stored.holds:
                continue
            event = self.check_bin(program, float(target), metric,
                                   stored)
            if event is not None:
                events.append(event)
        return events
