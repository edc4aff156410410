"""Batched-kernel edge cases: degenerate batches, broadcasting, errors.

The per-kernel rule — a stacked call equals the loop over its slices,
for B in {1, 3, 17} and both float dtypes — is one parametrized test
over the kernel registry in ``test_kernel_conformance.py``.  This file
keeps what that rule does not cover: the degenerate B=0, broadcast
batch shapes and stacked factors in the block Cholesky solve (whose
block products are one gemv per slice, so it is bit-identical to the
loop at B in {2, 3, 8, 32} too), per-slice early stopping in stacked
CG, mixed-dtype coefficient fields, and input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.kernels import assign_clusters
from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.linalg.cg import conjugate_gradient
from repro.linalg.poisson_ops import apply_laplacian_1d, apply_laplacian_2d
from repro.multigrid.helmholtz3d import face_coefficients
from repro.multigrid.relax import (
    _MASK_CACHE,
    _checkerboard,
    sor_helmholtz_3d,
    sor_poisson_2d,
)
from repro.multigrid.grids import prolong, restrict_full_weighting
from dense_reference import (assert_within_ulp_bound, dense_from_blocks,
                             refined_solve)
from test_props_linalg import random_spd_blocks

FLOAT_DTYPES = (np.float32, np.float64)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# SOR relaxation
# ----------------------------------------------------------------------
class TestSorPoisson2d:
    def test_non_float_promotes_to_float64(self):
        u = np.zeros((7, 7), dtype=np.int64)
        f = np.ones((7, 7), dtype=np.int64)
        result, _ = sor_poisson_2d(u, f, 0.1, 1.4, 1)
        assert result.dtype == np.float64

    def test_degenerate_empty_batch(self):
        empty = np.empty((0, 7, 7))
        result, ops = sor_poisson_2d(empty, empty, 0.1, 1.4, 2)
        assert result.shape == (0, 7, 7)
        assert ops == 0.0

    def test_checkerboard_masks_cached_and_frozen(self):
        red, black = _checkerboard((5, 5))
        assert (5, 5) in _MASK_CACHE
        assert not red.flags.writeable and not black.flags.writeable
        assert np.array_equal(red, ~black)
        again_red, _ = _checkerboard((5, 5))
        assert again_red is red  # same object, not rebuilt


class TestSorHelmholtz3d:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_dtype_preserved(self, dtype):
        rng = rng_for(11)
        n = 5
        phi = rng.standard_normal((n, n, n)).astype(dtype)
        f = rng.standard_normal((n, n, n)).astype(dtype)
        a = rng.uniform(0.5, 1.0, (n, n, n))
        faces = face_coefficients(rng.uniform(0.5, 1.0, (n, n, n)))
        result, _ = sor_helmholtz_3d(phi, f, a, faces, 0.125, 1.2, 1)
        # The state keeps phi/f's dtype: float64 coefficient fields do
        # not silently upcast a float32 solve.
        assert result.dtype == dtype

    def test_degenerate_empty_batch(self):
        rng = rng_for(13)
        n = 5
        empty = np.empty((0, n, n, n))
        a = rng.uniform(0.5, 1.0, (n, n, n))
        faces = face_coefficients(rng.uniform(0.5, 1.0, (n, n, n)))
        result, ops = sor_helmholtz_3d(empty, empty, a, faces,
                                       0.125, 1.2, 2)
        assert result.shape == (0, n, n, n)
        assert ops == 0.0


# ----------------------------------------------------------------------
# Grid transfers
# ----------------------------------------------------------------------
class TestGridTransfers:
    def test_default_core_ndim_is_all_axes(self):
        rng = rng_for(5)
        fine = rng.standard_normal((7, 7))
        explicit, _ = restrict_full_weighting(fine, core_ndim=2)
        implicit, _ = restrict_full_weighting(fine)
        assert np.array_equal(explicit, implicit)

    def test_core_ndim_validation(self):
        with pytest.raises(ValueError):
            restrict_full_weighting(np.zeros((7, 7)), core_ndim=3)
        with pytest.raises(ValueError):
            prolong(np.zeros((3, 3)), core_ndim=0)

    def test_degenerate_empty_batch(self):
        coarse, ops = restrict_full_weighting(np.empty((0, 7, 7)),
                                              core_ndim=2)
        assert coarse.shape == (0, 3, 3)
        assert ops == 0.0
        fine, _ = prolong(np.empty((0, 3, 3)), core_ndim=2)
        assert fine.shape == (0, 7, 7)


# ----------------------------------------------------------------------
# Conjugate gradients
# ----------------------------------------------------------------------
class TestConjugateGradient:
    @staticmethod
    def operator(x):
        return apply_laplacian_1d(x, 0.1)

    def test_per_slice_early_stop(self):
        # One trivially converged slice (zero RHS) next to a live one:
        # the converged slice must freeze immediately and be charged
        # exactly what its scalar run is.
        rng = rng_for(42)
        n = 15
        b = np.vstack([np.zeros(n), rng.standard_normal(n)])
        _, norms, ops = conjugate_gradient(
            self.operator, b, iterations=10, operator_cost=5.0 * n,
            tolerance=1e-10)
        _, norms_zero, ops_zero = conjugate_gradient(
            self.operator, b[0], iterations=10, operator_cost=5.0 * n,
            tolerance=1e-10)
        assert len(norms[0]) == len(norms_zero) == 1
        assert ops[0] == ops_zero
        assert len(norms[1]) > 1

    def test_preconditioned_stacked(self):
        from repro.linalg.poisson_ops import laplacian_1d_diagonal
        rng = rng_for(9)
        n = 31
        diagonal = laplacian_1d_diagonal(n, 0.1)
        b = rng.standard_normal((4, n))
        x, _, _ = conjugate_gradient(
            self.operator, b, iterations=25, operator_cost=5.0 * n,
            apply_minv=lambda r: r / diagonal, preconditioner_cost=float(n),
            tolerance=1e-9)
        for i in range(4):
            xi, _, _ = conjugate_gradient(
                self.operator, b[i], iterations=25, operator_cost=5.0 * n,
                apply_minv=lambda r: r / diagonal,
                preconditioner_cost=float(n), tolerance=1e-9)
            np.testing.assert_allclose(x[i], xi, rtol=1e-12, atol=1e-12)

    def test_degenerate_empty_batch(self):
        x, norms, ops = conjugate_gradient(
            self.operator, np.empty((0, 8)), iterations=5,
            operator_cost=1.0)
        assert x.shape == (0, 8) and norms == [] and ops.shape == (0,)

    def test_three_dimensional_b_rejected(self):
        with pytest.raises(ValueError):
            conjugate_gradient(self.operator, np.zeros((2, 2, 2)),
                               iterations=1, operator_cost=1.0)


# ----------------------------------------------------------------------
# Block Cholesky
# ----------------------------------------------------------------------
def poisson_stencil_blocks(n, h=0.125, shifts=(0.0,)):
    """``(diag, sub)`` of the n x n grid's 5-point Laplacian, one
    stacked copy per entry of ``shifts`` with its diagonal raised by
    that shift, in float64."""
    scale = 1.0 / (h * h)
    line = np.eye(n) * 4.0 * scale - (np.eye(n, k=1) + np.eye(n, k=-1)) \
        * scale
    diag = np.stack([np.stack([line + shift * np.eye(n)] * n)
                     for shift in shifts])
    sub = np.broadcast_to(-scale * np.eye(n),
                          (len(shifts), max(n - 1, 0), n, n))
    return diag, sub


def stacked_poisson_factors(n, batch, dtype):
    """``batch`` distinct Poisson-like factors (diagonal shifted per
    slice) in ``dtype``, as the block-bidiagonal Cholesky factor
    ``(lower, coupling)``: ``lower[..., k] == L_k`` and
    ``coupling[..., k-1] == S_k == L[k, k-1]``.

    Sliced out of a dense float64 Cholesky factor, a route independent
    of :func:`block_cholesky_factor`.
    """
    diag, sub = poisson_stencil_blocks(n, shifts=[0.1 * i
                                                  for i in range(batch)])
    tiles = np.linalg.cholesky(np.stack([
        dense_from_blocks(d, s) for d, s in zip(diag, sub)])).reshape(
            batch, n, n, n, n)
    line = np.arange(n)
    lower = np.moveaxis(tiles[:, line, :, line, :], 0, 1)
    coupling = np.moveaxis(tiles[:, line[1:], :, line[:-1], :], 0, 1)
    return lower.astype(dtype), coupling.astype(dtype)


def block_factor(factor):
    """``(diag_inv, forward, backward)`` for :func:`block_cholesky_solve`
    from a block-bidiagonal factor ``(lower, coupling)``.

    The diagonal blocks ``L_k`` are inverted and the couplings ``S_k``
    folded into them (``L_k^{-1} S_k`` and ``L_k^{-T} S_{k+1}^T``) in
    float64, and each result rounded once to the factor's dtype.
    """
    lower, coupling = factor
    diag_inv = np.linalg.inv(lower.astype(np.float64))
    coupling = coupling.astype(np.float64)
    forward = diag_inv[..., 1:, :, :] @ coupling
    backward = (np.swapaxes(diag_inv[..., :-1, :, :], -1, -2)
                @ np.swapaxes(coupling, -1, -2))
    return tuple(block.astype(lower.dtype)
                 for block in (diag_inv, forward, backward))


def poisson_blocks(n, dtype=np.float64):
    return tuple(block[0] for block in
                 block_factor(stacked_poisson_factors(n, 1, dtype)))


def assert_stacked_solve_equals_loop(blocks, b):
    """The stacked block solve equals looping it over every slice of
    the broadcast batch, bit for bit, with ops scaled exactly."""
    x, ops = block_cholesky_solve(*blocks, b)
    batch_shape = np.broadcast_shapes(*(block.shape[:-3]
                                        for block in blocks),
                                      b.shape[:-2])
    assert x.shape == batch_shape + b.shape[-2:]
    assert x.dtype == b.dtype
    slices = [np.broadcast_to(array, batch_shape + array.shape[-core:])
              for array, core in [*((block, 3) for block in blocks),
                                  (b, 2)]]
    slice_ops = None
    for index in np.ndindex(*batch_shape):
        expected, slice_ops = block_cholesky_solve(
            *(array[index] for array in slices))
        assert np.array_equal(x[index], expected)
    if slice_ops is not None:
        assert ops == slice_ops * float(np.prod(batch_shape))


class TestBlockCholeskyFactor:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_equals_dense_factor_folded(self, dtype):
        # The same folded factor as the dense route, within rounding.
        diag, sub = poisson_stencil_blocks(5, shifts=(0.0, 0.1, 0.2))
        blocks, _ = block_cholesky_factor(diag, sub)
        for block, expected in zip(
                blocks, block_factor(stacked_poisson_factors(5, 3,
                                                             np.float64))):
            assert np.allclose(block, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
        blocks, _ = block_cholesky_factor(diag.astype(dtype),
                                          sub.astype(dtype))
        assert all(block.dtype == dtype for block in blocks)

    def test_poisson_solve_inverts_the_stencil(self):
        rng = rng_for(3)
        n = 7
        blocks, _ = block_cholesky_factor(
            *(array[0] for array in poisson_stencil_blocks(n)))
        rhs = rng.standard_normal((n, n))
        x, _ = block_cholesky_solve(*blocks, rhs)
        residual = np.abs(apply_laplacian_2d(x, 0.125) - rhs).max()
        assert residual < 1e-10

    def test_not_positive_definite_raises_batched(self):
        diag, sub = poisson_stencil_blocks(3, shifts=(0.0, 0.0))
        diag[1, 1, 0, 0] = -1.0  # one bad slice poisons the batch
        with pytest.raises(np.linalg.LinAlgError):
            block_cholesky_factor(diag, sub)

    def test_mismatched_blocks_rejected(self):
        diag, sub = poisson_stencil_blocks(3)
        with pytest.raises(ValueError):
            block_cholesky_factor(diag, sub[:, :1])
        with pytest.raises(ValueError):
            block_cholesky_factor(diag[..., :2], sub)
        with pytest.raises(ValueError):
            block_cholesky_factor(diag[:, :0], sub[:, :0])

    def test_empty_batch(self):
        diag, sub = poisson_stencil_blocks(3)
        blocks, ops = block_cholesky_factor(diag[:0], sub[:0])
        assert [block.shape for block in blocks] == [
            (0, 3, 3, 3), (0, 2, 3, 3), (0, 2, 3, 3)]
        assert ops == 0.0

    def test_degenerate_empty_batch(self):
        solutions, ops = block_cholesky_solve(*poisson_blocks(3),
                                              np.empty((0, 3, 3)))
        assert solutions.shape == (0, 3, 3)
        assert ops == 0.0


class TestBlockCholeskySolve:
    """The block solve: stacked ≡ looped bit for bit (every block
    product is one gemv per slice, never a gemm), and equal to the
    dense reference within 16 ulp of the solution's largest entry."""

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("batch", (2, 3, 8, 32))
    def test_stacked_equals_looped(self, batch, dtype):
        rng = rng_for(batch)
        n = 7
        assert_stacked_solve_equals_loop(
            poisson_blocks(n, dtype),
            rng.standard_normal((batch, n, n)).astype(dtype))

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_stacked_factors(self, dtype):
        rng = rng_for(11)
        blocks = block_factor(stacked_poisson_factors(4, 3, dtype))
        assert_stacked_solve_equals_loop(
            blocks, rng.standard_normal((3, 4, 4)).astype(dtype))
        assert_stacked_solve_equals_loop(
            blocks, rng.standard_normal((4, 4)).astype(dtype))

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_broadcast_batch_shapes(self, dtype):
        rng = rng_for(12)
        diag_inv, forward, backward = block_factor(
            stacked_poisson_factors(3, 2, dtype))
        assert_stacked_solve_equals_loop(
            (diag_inv[:, None], forward[:, None], backward[:, None]),
            rng.standard_normal((1, 4, 3, 3)).astype(dtype))
        assert_stacked_solve_equals_loop(
            (diag_inv[:, None], forward[0], backward[:, None]),
            rng.standard_normal((4, 3, 3)).astype(dtype))

    def test_empty_batch(self):
        # An empty batch of factors, alone and broadcast against a
        # stack of right-hand sides (TestBlockCholeskyFactor covers an
        # empty stack of right-hand sides).
        diag_inv, forward, backward = poisson_blocks(3)
        x, ops = block_cholesky_solve(diag_inv[None][:0], forward,
                                      backward, np.ones((3, 3)))
        assert x.shape == (0, 3, 3) and ops == 0.0
        x, ops = block_cholesky_solve(diag_inv[None, None][:0], forward,
                                      backward, np.ones((4, 3, 3)))
        assert x.shape == (0, 4, 3, 3) and ops == 0.0

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("blocks, width", [(1, 3), (4, 1), (5, 3),
                                               (6, 4)])
    def test_matches_dense_reference_on_random_spd(self, blocks, width,
                                                   dtype):
        rng = rng_for(blocks * 10 + width)
        diag, sub = (array.astype(dtype)
                     for array in random_spd_blocks(rng, blocks, width))
        folded, _ = block_cholesky_factor(diag, sub)
        dense = dense_from_blocks(diag, sub)
        for _ in range(5):
            b = rng.standard_normal((blocks, width)).astype(dtype)
            x, _ = block_cholesky_solve(*folded, b)
            assert x.dtype == dtype
            assert_within_ulp_bound(x.reshape(-1),
                                    refined_solve(dense, b.reshape(-1)),
                                    dtype)

    def test_mismatched_blocks_rejected(self):
        diag_inv, forward, backward = poisson_blocks(3)
        with pytest.raises(ValueError):
            block_cholesky_solve(diag_inv, forward, backward,
                                 np.ones((4, 3)))
        with pytest.raises(ValueError):
            block_cholesky_solve(diag_inv, forward[:1], backward,
                                 np.ones((3, 3)))
        with pytest.raises(ValueError):
            block_cholesky_solve(diag_inv, forward, backward[:1],
                                 np.ones((3, 3)))

    def test_non_float_promotes_to_float64(self):
        x, _ = block_cholesky_solve(*poisson_blocks(3),
                                    np.ones((3, 3), dtype=np.int64))
        assert x.dtype == np.float64


# ----------------------------------------------------------------------
# Poisson stencils
# ----------------------------------------------------------------------
class TestPoissonStencils:
    def test_degenerate_empty_batch(self):
        assert apply_laplacian_2d(np.empty((0, 5, 5)), 0.1).shape \
            == (0, 5, 5)


# ----------------------------------------------------------------------
# Cluster assignment
# ----------------------------------------------------------------------
class TestAssignClusters:
    def test_shared_centroids_broadcast(self):
        rng = rng_for(1)
        points = rng.standard_normal((4, 20, 2))
        centroids = rng.standard_normal((3, 2))
        assignments, _ = assign_clusters(points, centroids)
        for i in range(4):
            expected, _ = assign_clusters(points[i], centroids)
            assert np.array_equal(assignments[i], expected)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            assign_clusters(np.zeros(4), np.zeros((2, 2)))

    def test_degenerate_empty_batch(self):
        assignments, ops = assign_clusters(np.empty((0, 10, 2)),
                                           np.empty((0, 3, 2)))
        assert assignments.shape == (0, 10)
        assert ops == 0.0
