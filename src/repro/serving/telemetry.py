"""Serving telemetry: rolling per-bin accuracy windows and drift
detection.

The paper's accuracy guarantees are *statistical* — estimated once,
off-line, from training trials (Section 3.3).  Once an artifact serves
live traffic, nothing in the original design checks that the training
distribution still resembles reality.  This module closes that gap:

* :class:`ServingTelemetry` keeps a bounded rolling window per
  ``(program, bin)`` of what serving actually observed — achieved
  accuracy, escalations, fallbacks, errors, and latency;
* :class:`DriftDetector` re-runs the Section-3.3 statistical test over
  each *observed* window and flags bins whose live accuracy no longer
  supports the :class:`~repro.runtime.guarantees.StatisticalGuarantee`
  stored in the artifact — the signal that triggers a background
  retune (:class:`~repro.serving.controller.RetuneController`).

:func:`percentile` is the shared nearest-rank percentile (ceil-based:
``ordered[ceil(f * len) - 1]``).  The serving engine's original
``round()``-based variant could *underestimate* high percentiles —
e.g. p95 over 31 samples picked the 29th value instead of the 30th
because ``round(0.95 * 30)`` banker's-rounds 28.5 down to 28 — so both
the engine's latency stats and these windows now use this one
function.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.lang.metrics import AccuracyMetric
from repro.runtime.guarantees import (
    StatisticalGuarantee,
    statistical_guarantee,
)

__all__ = ["percentile", "latency_summary", "BinSnapshot",
           "SheddingSnapshot", "ServingTelemetry",
           "DriftEvent", "DriftDetector"]

#: Default bound on each (program, bin) rolling window.
DEFAULT_WINDOW = 512


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * N)``-th smallest.

    ``fraction`` is in ``[0, 1]``; an empty sequence maps to 0.0.
    Unlike interpolation this always returns an observed value, and
    unlike ``round()``-based ranking it never underestimates on
    ``.5`` ties (banker's rounding rounds those *down* half the time).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def latency_summary(values: Sequence[float]
                    ) -> tuple[float, float, float]:
    """``(p50, p95, p99)`` of one latency window, sorted once.

    An *empty* window — a fresh engine, or a front-door shard
    reporting stats before its first completed request — summarises to
    zeros instead of raising, so dashboards and aggregators can always
    poll.  Non-empty windows use the same nearest-rank definition as
    :func:`percentile`.
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
    p50_latency: float
    p95_latency: float

    def __str__(self) -> str:
        acc = ("n/a" if self.mean_accuracy is None
               else f"{self.mean_accuracy:.4g}")
        return (f"{self.program}/bin {self.target:g}: {self.served} ok "
                f"{self.errors} err, mean accuracy {acc} over "
                f"{self.samples} samples, {self.fallbacks} fallbacks, "
                f"p95 {self.p95_latency * 1e3:.2f}ms")


@dataclass(frozen=True)
class SheddingSnapshot:
    """Lifetime load-shedding counters for one program.

    Recorded by the serving front door so the adaptive layer sees the
    *true* served distribution: ``degraded`` requests were served at a
    cheaper bin than their nominal choice (their realized accuracy
    lands in that cheaper bin's rolling window, where the
    :class:`DriftDetector` already watches it), while ``rejected`` and
    ``expired`` requests never executed at all.
    """

    program: str
    degraded: int = 0       # served at a cheaper bin than nominal
    degrade_steps: int = 0  # total bins shed across degraded requests
    rejected: int = 0       # admission-refused: every shard queue full
    expired: int = 0        # deadline passed while queued

    def __str__(self) -> str:
        return (f"{self.program}: {self.degraded} degraded "
                f"({self.degrade_steps} bin steps), "
                f"{self.rejected} rejected, {self.expired} expired")


class _BinWindow:
    """Mutable rolling state behind one :class:`BinSnapshot`."""

    __slots__ = ("accuracies", "latencies", "served", "errors",
                 "escalations", "fallbacks")

    def __init__(self, window: int):
        self.accuracies: deque[float] = deque(maxlen=window)
        self.latencies: deque[float] = deque(maxlen=window)
        self.served = 0
        self.errors = 0
        self.escalations = 0
        self.fallbacks = 0


class ServingTelemetry:
    """Thread-safe rolling windows of observed serving behaviour.

    One window per ``(program, bin target)``; ``record`` is called by
    the engine for every settled response (a handful of deque appends,
    cheap enough for the steady-state serve path — measured by
    ``benchmarks/bench_adaptive.py``).
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("telemetry window must be >= 1")
        self.window = window
        self._lock = threading.Lock()  # guards: _bins, _shedding
        self._bins: dict[tuple[str, float], _BinWindow] = {}
        # Lifetime shed/degrade counters per program, keyed as
        # [degraded, degrade_steps, rejected, expired].
        self._shedding: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Recording (the serve-path hot call)
    # ------------------------------------------------------------------
    def record(self, program: str, bin_target: float | None, *,
               ok: bool, accuracy: float | None = None,
               escalations: int = 0, fallback: bool = False,
               latency: float = 0.0) -> None:
        """Fold one served response into its bin's window."""
        self.record_batch([(program, bin_target, ok, accuracy,
                            escalations, fallback, latency)])

    def record_batch(self, entries: Iterable[tuple]) -> None:
        """Fold many responses under one lock acquisition.

        Entries are ``(program, bin_target, ok, accuracy, escalations,
        fallback, latency)`` tuples; the engine buffers one per settled
        response and flushes the batch once per ``serve`` call, so
        steady-state serving pays a list append per response, not a
        lock round-trip.
        """
        with self._lock:
            for (program, bin_target, ok, accuracy, escalations,
                 fallback, latency) in entries:
                if bin_target is None:
                    continue
                key = (program, float(bin_target))
                entry = self._bins.get(key)
                if entry is None:
                    entry = self._bins[key] = _BinWindow(self.window)
                if ok:
                    entry.served += 1
                else:
                    entry.errors += 1
                entry.escalations += escalations
                if fallback:
                    entry.fallbacks += 1
                if accuracy is not None:
                    entry.accuracies.append(float(accuracy))
                entry.latencies.append(float(latency))

    def record_shedding(self, program: str, *, degraded: int = 0,
                        steps: int = 0, rejected: int = 0,
                        expired: int = 0) -> None:
        """Fold front-door shed/degrade events into ``program``'s
        lifetime counters (see :class:`SheddingSnapshot`)."""
        with self._lock:
            entry = self._shedding.get(program)
            if entry is None:
                entry = self._shedding[program] = [0, 0, 0, 0]
            entry[0] += degraded
            entry[1] += steps
            entry[2] += rejected
            entry[3] += expired

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
                                   worst_accuracy=None,
                                   p50_latency=0.0, p95_latency=0.0)
            accuracies = list(entry.accuracies)
            latencies = list(entry.latencies)
            served, errors = entry.served, entry.errors
            escalations, fallbacks = entry.escalations, entry.fallbacks
        mean = (sum(accuracies) / len(accuracies)
                if accuracies else None)
        worst = min(accuracies) if accuracies else None
        return BinSnapshot(
            program=program, target=float(bin_target),
            samples=len(accuracies), served=served, errors=errors,
            escalations=escalations, fallbacks=fallbacks,
            mean_accuracy=mean, worst_accuracy=worst,
            p50_latency=percentile(latencies, 0.50),
            p95_latency=percentile(latencies, 0.95))

    def snapshots(self, program: str | None = None) -> list[BinSnapshot]:
        with self._lock:
            keys = [key for key in self._bins
                    if program is None or key[0] == program]
        return [self.snapshot(name, target) for name, target in keys]

    def shedding(self, program: str) -> SheddingSnapshot:
        """Lifetime shed/degrade counters for ``program`` (zeros when
        the front door never shed its traffic)."""
        with self._lock:
            entry = self._shedding.get(program, (0, 0, 0, 0))
            return SheddingSnapshot(program=program, degraded=entry[0],
                                    degrade_steps=entry[1],
                                    rejected=entry[2], expired=entry[3])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, program: str | None = None) -> None:
        """Drop windows — all of them, or one program's (after a
        hot-swap, so the new artifact is judged on its own traffic)."""
        with self._lock:
            if program is None:
                self._bins.clear()
                self._shedding.clear()
            else:
                for key in [k for k in self._bins if k[0] == program]:
                    del self._bins[key]
                self._shedding.pop(program, None)

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
