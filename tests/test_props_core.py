"""Property-based tests (hypothesis) for core data structures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.autotuner.stats import (
    confidence_bound,
    fit_normal,
    normal_cdf,
    probability_within_fraction,
    student_t_cdf,
    welch_p_value,
    welch_p_value_from_fits,
    welch_t_statistic,
)
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ConfigError
from repro.lang.scaling import resample_linear, resample_nearest
from repro.multigrid.grids import prolong, restrict_full_weighting

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# Decision trees
# ----------------------------------------------------------------------
@st.composite
def trees(draw):
    num_cutoffs = draw(st.integers(min_value=0, max_value=4))
    cutoffs = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
        min_size=num_cutoffs, max_size=num_cutoffs, unique=True)))
    leaves = draw(st.lists(st.integers(min_value=0, max_value=9),
                           min_size=num_cutoffs + 1,
                           max_size=num_cutoffs + 1))
    return SizeDecisionTree(leaves, cutoffs)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), n=st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False))
def test_tree_lookup_total(tree, n):
    assert tree.lookup(n) in tree.leaves


@settings(max_examples=60, deadline=None)
@given(tree=trees(), cutoff=st.floats(min_value=0.5, max_value=1e5,
                                      allow_nan=False))
def test_add_level_preserves_all_lookups(tree, cutoff):
    assume(cutoff not in tree.cutoffs)
    split = tree.add_level(cutoff)
    for n in list(tree.cutoffs) + [0.1, cutoff - 1e-6, cutoff, 1e6]:
        if n >= 0:
            assert split.lookup(n) == tree.lookup(n)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), seed=st.integers(min_value=0, max_value=999))
def test_random_mutation_sequences_keep_wellformedness(tree, seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        op = rng.integers(0, 4)
        try:
            if op == 0:
                tree = tree.add_level(float(rng.uniform(1, 1e5)))
            elif op == 1 and tree.num_levels:
                tree = tree.remove_level(
                    int(rng.integers(0, tree.num_levels)))
            elif op == 2:
                tree = tree.set_leaf(
                    int(rng.integers(0, len(tree.leaves))),
                    int(rng.integers(0, 10)))
            elif op == 3 and tree.num_levels:
                tree = tree.scale_cutoff(
                    int(rng.integers(0, tree.num_levels)),
                    float(rng.uniform(0.3, 3.0)))
        except ConfigError:
            continue
        cutoffs = tree.cutoffs
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))
        assert len(tree.leaves) == len(cutoffs) + 1


@settings(max_examples=60, deadline=None)
@given(tree=trees())
def test_tree_json_round_trip(tree):
    assert SizeDecisionTree.from_json(tree.to_json()) == tree


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite_floats, min_size=2, max_size=30))
def test_fit_normal_bounds(values):
    fit = fit_normal(values)
    assert min(values) <= fit.mean <= max(values)
    assert fit.std >= 0


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=-30, max_value=30, allow_nan=False),
       df=st.floats(min_value=0.5, max_value=200))
def test_t_cdf_in_unit_interval_and_symmetric(x, df):
    p = student_t_cdf(x, df)
    assert 0.0 <= p <= 1.0
    assert p + student_t_cdf(-x, df) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite_floats, min_size=2, max_size=20))
def test_welch_p_value_range(values):
    shifted = [v + 1.0 for v in values]
    p = welch_p_value(values, shifted)
    assert 0.0 <= p <= 1.0


@settings(max_examples=80, deadline=None)
@given(x=st.lists(finite_floats, max_size=12),
       y=st.lists(finite_floats, max_size=12))
def test_welch_fits_form_is_bit_identical(x, y):
    """The comparator's cached-fit form equals the sample form exactly."""
    p = welch_p_value_from_fits(fit_normal(x), fit_normal(y))
    assert p == welch_p_value(x, y)
    if len(x) < 2 or len(y) < 2:
        assert p == 1.0
        return
    t, df = welch_t_statistic(x, y)
    assert p == (0.0 if math.isinf(t)
                 else 2.0 * (1.0 - student_t_cdf(abs(t), df)))


@settings(max_examples=60, deadline=None)
@given(x=st.lists(finite_floats, min_size=1, max_size=12),
       y=st.lists(finite_floats, min_size=1, max_size=12),
       fraction=st.floats(min_value=1e-4, max_value=0.5))
def test_within_fraction_reuses_fit_exactly(x, y, fraction):
    assert probability_within_fraction(
        x, y, fraction, y_fit=fit_normal(y)) == \
        probability_within_fraction(x, y, fraction)


@pytest.mark.parametrize("y_tail", [2.225073858507e-311,
                                    9.554743456600135e-272])
def test_within_fraction_near_zero_scale_is_zero(y_tail):
    # A subnormal |mean(y)| overflows the scaled difference (to inf, or
    # its square to inf); the mean difference is then far outside.
    assert probability_within_fraction([0.0, 1.0], [0.0, y_tail], 0.5) == 0.0


@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=20),
       confidence=st.floats(min_value=0.5, max_value=0.999))
def test_confidence_bounds_bracket_mean(values, confidence):
    fit = fit_normal(values)
    lower = confidence_bound(values, confidence, side="lower")
    upper = confidence_bound(values, confidence, side="upper")
    # Tolerance: at confidence ~0.5 the quantile is ~0 up to the
    # bisection resolution, so the bounds coincide with the mean.
    slack = 1e-9 * (1.0 + abs(fit.mean))
    assert lower <= fit.mean + slack
    assert upper >= fit.mean - slack


@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=10))
def test_identical_samples_always_within_fraction(values):
    assert probability_within_fraction(values, list(values)) == \
        pytest.approx(1.0)


# ----------------------------------------------------------------------
# Grid transfers and resamplers
# ----------------------------------------------------------------------
grid_exponents = st.integers(min_value=2, max_value=5)


@settings(max_examples=30, deadline=None)
@given(k=grid_exponents, seed=st.integers(0, 999))
def test_restrict_prolong_shapes_invert(k, seed):
    n = 2 ** k - 1
    rng = np.random.default_rng(seed)
    fine = rng.normal(size=(n, n))
    coarse, _ = restrict_full_weighting(fine)
    assert coarse.shape == ((n - 1) // 2, (n - 1) // 2)
    back, _ = prolong(coarse)
    assert back.shape == fine.shape


@settings(max_examples=30, deadline=None)
@given(k=grid_exponents, seed=st.integers(0, 999))
def test_transfer_operators_are_adjoint(k, seed):
    n = 2 ** k - 1
    nc = (n - 1) // 2
    rng = np.random.default_rng(seed)
    fine = rng.normal(size=(n, n))
    coarse = rng.normal(size=(nc, nc))
    restricted, _ = restrict_full_weighting(fine)
    prolonged, _ = prolong(coarse)
    assert float((restricted * coarse).sum()) == pytest.approx(
        float((fine * prolonged).sum()) / 4.0, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=1, max_value=64),
       target=st.integers(min_value=1, max_value=64),
       seed=st.integers(0, 999))
def test_resamplers_produce_requested_length(length, target, seed):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=length)
    for resample in (resample_nearest, resample_linear):
        out = resample(signal, target)
        assert out.shape == (target,)
        assert np.all(np.isfinite(out))
        # Values stay inside the input's range (both are interpolants).
        assert out.min() >= signal.min() - 1e-9
        assert out.max() <= signal.max() + 1e-9
