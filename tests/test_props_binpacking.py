"""Property-based tests for bin packing invariants (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.binpacking.algorithms import ALGORITHMS, validate_packing
from repro.binpacking.datagen import generate_items_with_known_optimal

from test_binpacking import assert_matches_reference

items_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60)


@settings(max_examples=40, deadline=None)
@given(items=items_strategy,
       name=st.sampled_from(sorted(ALGORITHMS)))
def test_every_algorithm_produces_valid_packings(items, name):
    array = np.array(items)
    packing = ALGORITHMS[name](array)
    assert validate_packing(array, packing)


@settings(max_examples=40, deadline=None)
@given(items=items_strategy,
       name=st.sampled_from(sorted(ALGORITHMS)))
def test_bin_count_bounds(items, name):
    """Volume lower bound and trivial n upper bound hold for any input."""
    array = np.array(items)
    packing = ALGORITHMS[name](array)
    assert math.ceil(array.sum() - 1e-9) <= packing.num_bins <= len(items)


@settings(max_examples=40, deadline=None)
@given(items=items_strategy,
       name=st.sampled_from(sorted(ALGORITHMS)),
       kth=st.integers(min_value=1, max_value=16))
def test_every_algorithm_matches_the_linear_scan_reference(items, name,
                                                           kth):
    """Exact assignment, bin count and ops against the definition."""
    assert_matches_reference(name, np.array(items), kth)


@settings(max_examples=40, deadline=None)
@given(items=items_strategy)
def test_next_fit_two_opt_bound(items):
    """NextFit uses < 2 * volume + 1 bins (the classic 2-OPT argument)."""
    array = np.array(items)
    packing = ALGORITHMS["NextFit"](array)
    assert packing.num_bins <= 2 * math.ceil(array.sum()) + 1


@settings(max_examples=40, deadline=None)
@given(items=items_strategy)
def test_decreasing_variants_agree_on_bin_count_with_sorted_input(items):
    """Running X on reverse-sorted input equals XDecreasing's count."""
    array = np.array(items)
    sorted_items = np.sort(array)[::-1]
    for base, decreasing in (("FirstFit", "FirstFitDecreasing"),
                             ("BestFit", "BestFitDecreasing"),
                             ("NextFit", "NextFitDecreasing")):
        direct = ALGORITHMS[base](sorted_items).num_bins
        wrapped = ALGORITHMS[decreasing](array).num_bins
        assert direct == wrapped


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_datagen_optimality_invariants(n, seed):
    rng = np.random.default_rng(seed)
    items, optimal = generate_items_with_known_optimal(n, rng)
    assert len(items) == n
    assert np.all(items > 0)
    assert np.all(items <= 1.0 + 1e-9)
    assert items.sum() == pytest.approx(optimal, abs=1e-6)
