"""Serving telemetry: nearest-rank latency percentiles, rolling
windows, drift."""

from __future__ import annotations

import pytest

from repro.lang.metrics import AccuracyMetric
from repro.runtime.guarantees import statistical_guarantee
from repro.serving.engine import ServeResponse
from repro.serving.telemetry import (
    DriftDetector,
    ServingTelemetry,
    latency_summary,
)

higher = AccuracyMetric(lambda o, i: 0.0, name="acc",
                        higher_is_better=True)
lower = AccuracyMetric(lambda o, i: 0.0, name="err",
                       higher_is_better=False)


def record(telemetry, program, bin_target, *, ok, accuracy=None,
           escalations=0, fallback=False):
    """Fold one response into ``telemetry``, as the front door does."""
    telemetry.record_batch([ServeResponse(
        program=program, ok=ok, outputs=None, bin_target=bin_target,
        requested_accuracy=None, achieved_accuracy=accuracy,
        guarantee=None, fallback=fallback, escalations=escalations)])


class TestPercentile:
    """The ceil-based nearest-rank ``(p50, p95, p99)`` behind every
    latency percentile the front door reports."""

    def test_empty_is_zero(self):
        assert latency_summary([]) == (0.0, 0.0, 0.0)

    def test_single_value(self):
        assert latency_summary([7.0]) == (7.0, 7.0, 7.0)

    def test_median_of_even_count_is_lower_middle(self):
        # Nearest-rank p50 over 4 values is the 2nd: ceil(0.5*4) = 2.
        # A round()-based rank picks the 3rd (round(1.5) -> 2).
        assert latency_summary([1.0, 2.0, 3.0, 4.0])[0] == 2.0

    def test_p95_not_underestimated_on_banker_rounding_tie(self):
        # 31 samples: ceil(0.95 * 31) = 30 -> the 30th value.
        # round(0.95 * 30) banker's-rounds 28.5 down to 28 and
        # returns the 29th — an underestimate.
        values = [float(i) for i in range(1, 32)]
        assert latency_summary(values)[1] == 30.0

    def test_extremes(self):
        # Always an observed value: the middle one, then the maximum.
        assert latency_summary([3.0, 1.0, 2.0]) == (2.0, 3.0, 3.0)

    def test_unsorted_input(self):
        assert latency_summary([5.0, 1.0, 9.0, 3.0]) == (3.0, 9.0, 9.0)

    def test_fraction_above_one_clamps_to_max(self):
        # ceil(0.99 * 2) = 2: the rank never passes the last sample.
        assert latency_summary([2.0, 1.0])[1:] == (2.0, 2.0)


class TestServingTelemetry:
    def test_record_and_snapshot(self):
        telemetry = ServingTelemetry(window=8)
        for accuracy in (0.9, 0.95, 0.85):
            record(telemetry, "p", 0.9, ok=True, accuracy=accuracy)
        record(telemetry, "p", 0.9, ok=False, accuracy=0.2,
               escalations=1, fallback=True)
        snap = telemetry.snapshot("p", 0.9)
        assert snap.served == 3
        assert snap.errors == 1
        assert snap.escalations == 1
        assert snap.fallbacks == 1
        assert snap.samples == 4
        assert snap.mean_accuracy == pytest.approx(
            (0.9 + 0.95 + 0.85 + 0.2) / 4)
        assert snap.worst_accuracy == 0.2
        assert "p/bin 0.9" in str(snap)

    def test_window_is_bounded(self):
        telemetry = ServingTelemetry(window=4)
        for i in range(10):
            record(telemetry, "p", 0.5, ok=True, accuracy=float(i))
        assert telemetry.accuracies("p", 0.5) == (6.0, 7.0, 8.0, 9.0)
        # Lifetime counters keep counting past the window.
        assert telemetry.snapshot("p", 0.5).served == 10

    def test_bin_none_ignored(self):
        telemetry = ServingTelemetry()
        record(telemetry, "p", None, ok=False)
        assert telemetry.snapshots() == []

    def test_enumeration(self):
        telemetry = ServingTelemetry()
        record(telemetry, "b", 0.9, ok=True, accuracy=1.0)
        record(telemetry, "a", 0.5, ok=True, accuracy=1.0)
        record(telemetry, "a", 0.9, ok=True, accuracy=1.0)
        assert telemetry.programs() == ("a", "b")
        assert telemetry.bins_for("a") == (0.5, 0.9)
        assert len(telemetry.snapshots("a")) == 2

    def test_empty_snapshot(self):
        snap = ServingTelemetry().snapshot("ghost", 0.9)
        assert snap.samples == 0
        assert snap.mean_accuracy is None

    def test_reset_one_program(self):
        telemetry = ServingTelemetry()
        record(telemetry, "a", 0.9, ok=True, accuracy=1.0)
        record(telemetry, "b", 0.9, ok=True, accuracy=1.0)
        telemetry.reset("a")
        assert telemetry.programs() == ("b",)
        telemetry.reset()
        assert telemetry.programs() == ()

    def test_window_validated(self):
        with pytest.raises(ValueError):
            ServingTelemetry(window=0)


class TestDriftDetector:
    def stored(self, target, metric=higher):
        """A training-time guarantee that holds for ``target``."""
        return statistical_guarantee([target + 0.05] * 20, target,
                                     metric, 0.9)

    def test_no_drift_when_accuracy_holds(self):
        telemetry = ServingTelemetry()
        for _ in range(30):
            record(telemetry, "p", 0.9, ok=True, accuracy=0.97)
        detector = DriftDetector(telemetry, min_samples=16)
        assert detector.check("p", higher,
                              {0.9: self.stored(0.9)}) == []

    def test_drift_flagged_when_accuracy_erodes(self):
        telemetry = ServingTelemetry()
        for i in range(30):
            record(telemetry, "p", 0.9, ok=True,
                   accuracy=0.7 + 0.001 * (i % 5))
        detector = DriftDetector(telemetry, min_samples=16)
        events = detector.check("p", higher, {0.9: self.stored(0.9)})
        assert len(events) == 1
        event = events[0]
        assert event.target == 0.9
        assert not event.observed.holds
        assert event.stored is not None and event.stored.holds
        assert "drift" in str(event)

    def test_min_samples_gate(self):
        telemetry = ServingTelemetry()
        for _ in range(5):
            record(telemetry, "p", 0.9, ok=True, accuracy=0.1)
        detector = DriftDetector(telemetry, min_samples=16)
        assert detector.check("p", higher,
                              {0.9: self.stored(0.9)}) == []

    def test_bins_without_stored_guarantee_skipped(self):
        telemetry = ServingTelemetry()
        for _ in range(30):
            record(telemetry, "p", 0.9, ok=True, accuracy=0.1)
        detector = DriftDetector(telemetry, min_samples=16)
        assert detector.check("p", higher, {}) == []

    def test_lower_is_better_direction(self):
        # Bin-packing style: target 1.1, observed ratios creep *up*.
        telemetry = ServingTelemetry()
        for i in range(30):
            record(telemetry, "p", 1.1, ok=True,
                   accuracy=1.3 + 0.001 * (i % 3))
        stored = statistical_guarantee([1.05] * 20, 1.1, lower, 0.9)
        detector = DriftDetector(telemetry, min_samples=16)
        events = detector.check("p", lower, {1.1: stored})
        assert len(events) == 1

    def test_min_samples_validated(self):
        with pytest.raises(ValueError):
            DriftDetector(ServingTelemetry(), min_samples=1)
