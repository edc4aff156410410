"""Property-based tests (hypothesis) for the linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.linalg.bisection import (
    bisect_eigenvalues,
    solve_shifted_tridiagonal,
    sturm_count,
)
from repro.linalg.cg import conjugate_gradient
from repro.linalg.householder import tridiagonalize_symmetric
from repro.linalg.tridiag_qr import tridiagonal_eigen_qr

from dense_reference import (assert_within_ulp_bound, dense_from_blocks,
                             refined_solve)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.normal(size=max(0, n - 1))


def dense_from(d, e):
    t = np.diag(d)
    if len(d) > 1:
        t += np.diag(e, 1) + np.diag(e, -1)
    return t


@settings(max_examples=40, deadline=None)
@given(data=tridiagonals())
def test_sturm_count_matches_numpy(data):
    d, e = data
    reference = np.linalg.eigvalsh(dense_from(d, e))
    for quantile in (0.1, 0.5, 0.9):
        x = float(np.quantile(reference, quantile)) + 1e-7
        assert sturm_count(d, e, x) == int(np.sum(reference < x))


@settings(max_examples=40, deadline=None)
@given(data=tridiagonals())
def test_sturm_count_monotone_in_x(data):
    d, e = data
    points = np.linspace(d.min() - 5, d.max() + 5, 7)
    counts = [sturm_count(d, e, x) for x in points]
    assert counts == sorted(counts)


@settings(max_examples=30, deadline=None)
@given(data=tridiagonals())
def test_qr_and_bisection_agree_on_extremes(data):
    d, e = data
    n = len(d)
    values_qr, _, _ = tridiagonal_eigen_qr(d, e)
    values_bisect, _ = bisect_eigenvalues(d, e, [0, n - 1])
    assert values_bisect[0] == pytest.approx(values_qr[0], abs=1e-8)
    assert values_bisect[1] == pytest.approx(values_qr[-1], abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(data=tridiagonals(), shift=st.floats(min_value=-3, max_value=3,
                                            allow_nan=False),
       seed=st.integers(0, 999))
def test_shifted_tridiagonal_solve(data, shift, seed):
    d, e = data
    n = len(d)
    t = dense_from(d, e) - shift * np.eye(n)
    # Skip (near-)singular shifts: the safeguarded solve regularises
    # them by design, so the residual check does not apply.
    if abs(np.linalg.det(t)) < 1e-6:
        return
    rng = np.random.default_rng(seed)
    b = rng.normal(size=n)
    x = solve_shifted_tridiagonal(d, e, shift, b)
    assert np.allclose(t @ x, b, atol=1e-6 * max(1.0, np.abs(t).max()))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       seed=st.integers(0, 999))
def test_householder_preserves_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a + a.T
    d, e, q, _ = tridiagonalize_symmetric(a)
    values, _, _ = tridiagonal_eigen_qr(d, e)
    assert np.allclose(values, np.linalg.eigvalsh(a), atol=1e-8)


def random_spd_blocks(rng: np.random.Generator, blocks: int, width: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(diag, sub)`` of a random SPD block-tridiagonal matrix.

    Off-diagonal entries lie in [-1, 1] and each diagonal entry exceeds
    twice its row's off-diagonal reach, so the matrix is strongly
    diagonally dominant, hence SPD and well conditioned.
    """
    diag = rng.uniform(-1.0, 1.0, (blocks, width, width))
    diag = np.tril(diag, -1) + np.swapaxes(np.tril(diag, -1), -1, -2)
    diag += np.eye(width) * rng.uniform(6.0 * width, 6.0 * width + 1.0,
                                        (blocks, 1, width))
    sub = rng.uniform(-1.0, 1.0, (blocks - 1, width, width))
    return diag, sub


@st.composite
def spd_block_tridiagonals(draw):
    """``(diag, sub, rng)``: a random SPD block-tridiagonal matrix of
    1..6 blocks of 1..8 unknowns, and the generator that drew it, left
    for drawing right-hand sides."""
    blocks = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    return (*random_spd_blocks(rng, blocks, width), rng)


@settings(max_examples=40, deadline=None)
@given(spd_block_tridiagonals(), st.sampled_from((np.float32, np.float64)))
def test_block_cholesky_solves_random_spd(drawn, dtype):
    diag, sub, rng = drawn
    diag, sub = diag.astype(dtype), sub.astype(dtype)
    b = rng.normal(size=diag.shape[:2]).astype(dtype)
    blocks, _ = block_cholesky_factor(diag, sub)
    x, _ = block_cholesky_solve(*blocks, b)
    assert x.dtype == dtype
    reference = refined_solve(dense_from_blocks(diag, sub), b.reshape(-1))
    assert_within_ulp_bound(x.reshape(-1), reference, dtype)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=4, max_value=64),
       seed=st.integers(0, 999))
def test_cg_residual_never_ends_higher_than_start(n, seed):
    rng = np.random.default_rng(seed)
    diagonal = rng.uniform(1.0, 3.0, size=n)

    def apply_a(v):
        out = 2.0 * v
        out[:-1] -= v[1:] * 0.5
        out[1:] -= v[:-1] * 0.5
        return out * diagonal ** 0 + diagonal * v

    b = rng.normal(size=n)
    _, norms, _ = conjugate_gradient(apply_a, b, iterations=2 * n,
                                     operator_cost=5.0 * n,
                                     tolerance=1e-12)
    assert norms[-1] <= norms[0] * (1 + 1e-9)
