"""Tests for the statistical machinery, using scipy as the oracle."""

import math

import numpy as np
import pytest
import scipy.stats

from repro.autotuner.stats import (
    confidence_bound,
    confidence_bound_from_fit,
    fit_normal,
    normal_cdf,
    probability_within_fraction,
    regularized_incomplete_beta,
    student_t_cdf,
    welch_p_value,
    welch_t_statistic,
)


class TestFitNormal:
    def test_matches_numpy(self):
        values = [1.0, 2.0, 4.0, 8.0]
        fit = fit_normal(values)
        assert fit.mean == pytest.approx(np.mean(values))
        assert fit.std == pytest.approx(np.std(values, ddof=1))
        assert fit.count == 4

    def test_single_sample(self):
        fit = fit_normal([3.0])
        assert fit.mean == 3.0
        assert fit.std == 0.0
        assert fit.is_singular()

    def test_empty(self):
        fit = fit_normal([])
        assert fit.count == 0
        assert math.isnan(fit.mean)

    def test_stderr(self):
        fit = fit_normal([1.0, 3.0])
        assert fit.stderr == pytest.approx(fit.std / math.sqrt(2))

    def test_constant_values_singular(self):
        assert fit_normal([5.0, 5.0, 5.0]).is_singular()


class TestNormalCdf:
    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 0.5, 2.5])
    def test_matches_scipy(self, x):
        assert normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x),
                                              abs=1e-12)

    def test_shift_scale(self):
        assert normal_cdf(3.0, mean=3.0, std=2.0) == pytest.approx(0.5)

    def test_degenerate_std(self):
        assert normal_cdf(1.0, mean=2.0, std=0.0) == 0.0
        assert normal_cdf(3.0, mean=2.0, std=0.0) == 1.0


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b,x", [
        (0.5, 0.5, 0.3), (2.0, 3.0, 0.7), (10.0, 0.5, 0.99),
        (1.0, 1.0, 0.42), (5.0, 5.0, 0.5),
    ])
    def test_matches_scipy(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.stats.beta.cdf(x, a, b), abs=1e-10)

    def test_boundaries(self):
        assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
        assert regularized_incomplete_beta(2, 3, 1.0) == 1.0


class TestStudentT:
    @pytest.mark.parametrize("t,df", [
        (0.0, 5), (1.0, 3), (-2.5, 10), (4.0, 1), (-0.3, 24.7),
    ])
    def test_matches_scipy(self, t, df):
        assert student_t_cdf(t, df) == pytest.approx(
            scipy.stats.t.cdf(t, df), abs=1e-9)

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    def test_infinite_t(self):
        assert student_t_cdf(float("inf"), 3) == 1.0
        assert student_t_cdf(float("-inf"), 3) == 0.0


class TestWelch:
    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 12).tolist()
        y = rng.normal(0.5, 2, 9).tolist()
        t, df = welch_t_statistic(x, y)
        ref = scipy.stats.ttest_ind(x, y, equal_var=False)
        assert t == pytest.approx(ref.statistic)
        assert welch_p_value(x, y) == pytest.approx(ref.pvalue, abs=1e-9)

    def test_identical_distributions_large_p(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert welch_p_value(x, list(x)) == pytest.approx(1.0)

    def test_clearly_different_small_p(self):
        x = [1.0, 1.1, 0.9, 1.05]
        y = [10.0, 10.2, 9.9, 10.1]
        assert welch_p_value(x, y) < 1e-6

    def test_too_few_samples_returns_one(self):
        assert welch_p_value([1.0], [2.0, 3.0]) == 1.0

    def test_zero_variance_equal_means(self):
        assert welch_p_value([2.0, 2.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_zero_variance_different_means(self):
        assert welch_p_value([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_statistic_needs_two_samples(self):
        with pytest.raises(ValueError):
            welch_t_statistic([1.0], [1.0, 2.0])


class TestProbabilityWithinFraction:
    def test_identical_paired_samples(self):
        x = [10.0, 10.0, 10.0]
        assert probability_within_fraction(x, list(x)) == \
            pytest.approx(1.0)

    def test_large_difference_probability_zero(self):
        x = [10.0, 10.1, 9.9]
        y = [20.0, 20.1, 19.9]
        assert probability_within_fraction(x, y) < 0.01

    def test_small_consistent_difference(self):
        x = [10.001, 10.0005, 10.0008]
        y = [10.0, 10.0, 10.0]
        assert probability_within_fraction(x, y, 0.01) > 0.95

    def test_no_samples(self):
        assert probability_within_fraction([], []) == 0.0

    def test_singular_fit_inside_threshold(self):
        assert probability_within_fraction([10.0], [10.0]) == 1.0
        assert probability_within_fraction([20.0], [10.0]) == 0.0


class TestConfidenceBound:
    def test_lower_below_mean(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5]
        bound = confidence_bound(values, 0.95, side="lower")
        assert bound < np.mean(values)

    def test_upper_above_mean(self):
        values = [10.0, 11.0, 9.0]
        assert confidence_bound(values, 0.95, side="upper") > \
            np.mean(values)

    def test_matches_normal_quantile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        fit = fit_normal(values)
        z = scipy.stats.norm.ppf(0.95)
        expected = fit.mean - z * fit.stderr
        assert confidence_bound(values, 0.95) == pytest.approx(
            expected, abs=1e-6)

    def test_single_sample_returns_value(self):
        assert confidence_bound([7.0], 0.99) == 7.0

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            confidence_bound([1.0, 2.0], side="middle")

    def test_empty_nan(self):
        assert math.isnan(confidence_bound([], 0.95))

    @staticmethod
    def _bisection_bound(values, confidence, side):
        """The bound with its quantile recomputed by bisection on every
        call, as before the quantile was cached."""
        fit = fit_normal(values)
        lo, hi = -12.0, 12.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < confidence:
                lo = mid
            else:
                hi = mid
        offset = 0.5 * (lo + hi) * fit.stderr
        return fit.mean - offset if side == "lower" else fit.mean + offset

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_cached_quantile_is_bit_identical(self, confidence, side):
        values = [0.91, 0.87, 0.95, 0.9, 0.88, 0.93]
        expected = self._bisection_bound(values, confidence, side)
        for _ in range(2):   # the second call reads the cached quantile
            assert confidence_bound(values, confidence, side) == expected
            assert confidence_bound_from_fit(
                fit_normal(values), confidence, side) == expected

    def test_invalid_confidence_still_raises(self):
        for confidence in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                confidence_bound([1.0, 2.0], confidence)
