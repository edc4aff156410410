"""Pure load-shedding policy functions (repro.runtime.policy).

The front door's admission controller is two pure functions —
:func:`update_shed_level` (watermark hysteresis over queue fill /
observed p95) and :func:`degrade_request` (cost-ordered bin downgrade
bounded by the request's floor bin).  These tests pin their contracts
without any serving machinery.
"""

import pytest

from repro.lang.metrics import AccuracyMetric
from repro.runtime.policy import (
    DegradeDecision,
    SheddingPolicy,
    degrade_request,
    update_shed_level,
)

HIGHER = AccuracyMetric(lambda outputs, inputs: 0.0, "higher")
LOWER = AccuracyMetric(lambda outputs, inputs: 0.0, "lower",
                       higher_is_better=False)

#: Least- to most-accurate == cheapest to most expensive.
BINS = (0.5, 0.9, 0.99)
POLICY = SheddingPolicy(low_watermark=0.25, high_watermark=0.75,
                        max_level=4)


# ----------------------------------------------------------------------
# SheddingPolicy validation
# ----------------------------------------------------------------------
class TestSheddingPolicy:
    def test_defaults_valid(self):
        policy = SheddingPolicy()
        assert policy.low_watermark < policy.high_watermark

    @pytest.mark.parametrize("low, high", [
        (-0.1, 0.5), (0.5, 1.1), (0.8, 0.2),
    ])
    def test_bad_watermarks_rejected(self, low, high):
        with pytest.raises(ValueError, match="watermark"):
            SheddingPolicy(low_watermark=low, high_watermark=high)

    def test_bad_max_level_rejected(self):
        with pytest.raises(ValueError, match="max_level"):
            SheddingPolicy(max_level=-1)

    def test_bad_p95_budget_rejected(self):
        for budget in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="p95_budget"):
                SheddingPolicy(p95_budget=budget)


# ----------------------------------------------------------------------
# Watermark hysteresis
# ----------------------------------------------------------------------
class TestUpdateShedLevel:
    def test_rises_at_high_watermark(self):
        assert update_shed_level(0, 0.75, POLICY) == 1
        assert update_shed_level(0, 1.0, POLICY) == 1

    def test_falls_at_low_watermark(self):
        assert update_shed_level(3, 0.25, POLICY) == 2
        assert update_shed_level(1, 0.0, POLICY) == 0

    def test_holds_inside_hysteresis_band(self):
        # The defining property of hysteresis: between the watermarks
        # the level neither rises nor falls, whatever it currently is.
        for level in (0, 1, 3):
            assert update_shed_level(level, 0.5, POLICY) == level

    def test_moves_one_step_per_call(self):
        assert update_shed_level(0, 1.0, POLICY) == 1   # not straight to max
        assert update_shed_level(4, 0.0, POLICY) == 3   # not straight to 0

    def test_capped_at_max_level_and_zero(self):
        assert update_shed_level(POLICY.max_level, 1.0, POLICY) \
            == POLICY.max_level
        assert update_shed_level(0, 0.0, POLICY) == 0

    def test_p95_over_budget_is_overload(self):
        policy = SheddingPolicy(p95_budget=0.1)
        # Queues healthy, but tail latency blown: still sheds.
        assert update_shed_level(0, 0.0, policy, p95=0.2) == 1

    def test_p95_budget_gates_recovery(self):
        policy = SheddingPolicy(p95_budget=0.1)
        # Fill recovered but p95 still over budget: still overloaded.
        assert update_shed_level(2, 0.0, policy, p95=0.2) == 3
        # Only once the tail recovers too does the level come down.
        assert update_shed_level(2, 0.0, policy, p95=0.05) == 1

    def test_unknown_p95_ignored(self):
        policy = SheddingPolicy(p95_budget=0.1)
        assert update_shed_level(1, 0.0, policy, p95=None) == 0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="shed level"):
            update_shed_level(-1, 0.5, POLICY)


# ----------------------------------------------------------------------
# Cost-ordered degradation with a floor
# ----------------------------------------------------------------------
class TestDegradeRequest:
    def test_level_zero_is_nominal(self):
        decision = degrade_request(BINS, HIGHER, 0.99, 0)
        assert decision == DegradeDecision(target=0.99, steps=0,
                                           nominal=0.99)

    def test_downgrade_order_is_cost_order(self):
        # Each level moves exactly one bin toward the cheap end of the
        # least-accurate-first (== cheapest-first) ladder.
        assert degrade_request(BINS, HIGHER, 0.99, 1).target == 0.9
        assert degrade_request(BINS, HIGHER, 0.99, 2).target == 0.5
        decision = degrade_request(BINS, HIGHER, 0.99, 2)
        assert decision.steps == 2 and not decision.floored

    def test_clipped_at_cheapest_bin(self):
        decision = degrade_request(BINS, HIGHER, 0.99, 99)
        assert decision.target == BINS[0]
        assert decision.steps == 2
        assert decision.floored  # asked for 99, got 2

    def test_none_means_most_accurate_nominal(self):
        decision = degrade_request(BINS, HIGHER, None, 1)
        assert decision.nominal == BINS[-1]
        assert decision.target == 0.9

    def test_never_sheds_below_floor_bin(self):
        # floor=0.9 resolves to bin 0.9: one shed step is allowed,
        # further levels are clipped there.
        for level in (1, 2, 5):
            decision = degrade_request(BINS, HIGHER, 0.99, level,
                                       floor=0.9)
            assert decision.target == 0.9
        assert degrade_request(BINS, HIGHER, 0.99, 5, floor=0.9).floored

    def test_floor_at_nominal_pins_request(self):
        decision = degrade_request(BINS, HIGHER, 0.99, 3, floor=0.99)
        assert decision.target == 0.99 and decision.steps == 0
        assert decision.floored

    def test_unsatisfiable_floor_pins_at_nominal(self):
        # No tuned bin satisfies floor=2.0: nothing may be shed.
        decision = degrade_request(BINS, HIGHER, 0.99, 3, floor=2.0)
        assert decision.target == decision.nominal == 0.99
        assert decision.steps == 0 and decision.floored

    def test_cheap_nominal_has_nothing_to_shed(self):
        decision = degrade_request(BINS, HIGHER, 0.5, 4)
        assert decision.target == decision.nominal == 0.5
        assert decision.steps == 0 and decision.floored

    def test_lower_is_better_metric(self):
        # Bin Packing-style metric: bins sorted least- to
        # most-accurate means *descending* values.
        bins = (1.5, 1.1, 1.01)
        decision = degrade_request(bins, LOWER, 1.01, 1)
        assert decision.nominal == 1.01 and decision.target == 1.1
        assert degrade_request(bins, LOWER, 1.01, 1,
                               floor=1.01).target == 1.01

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="shed level"):
            degrade_request(BINS, HIGHER, 0.99, -1)

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            degrade_request((), HIGHER, 0.99, 1)
