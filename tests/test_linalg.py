"""Tests for the from-scratch linear algebra substrate (numpy oracle)."""

import numpy as np
import pytest

from repro.linalg.banded import (block_cholesky_factor, block_cholesky_solve,
                                 dpbsv_ops)
from repro.linalg.bisection import (
    bisect_eigenvalues,
    inverse_iteration,
    solve_shifted_tridiagonal,
    sturm_count,
)
from repro.linalg.cg import conjugate_gradient
from repro.linalg.householder import tridiagonalize_symmetric
from repro.linalg.poisson_ops import (
    apply_laplacian_1d,
    apply_laplacian_2d,
    laplacian_1d_diagonal,
)
from repro.linalg.precond import (
    jacobi_preconditioner,
    polynomial_preconditioner,
)
from repro.linalg.svd import (
    rank_k_reconstruction,
    singular_triplets_full,
    singular_triplets_topk,
    symmetric_embedding,
)
from repro.linalg.tridiag_qr import tridiagonal_eigen_qr

from dense_reference import (assert_within_ulp_bound, dense_from_blocks,
                             refined_solve)
from test_batch_kernels import poisson_stencil_blocks
from test_props_linalg import random_spd_blocks

#: ``(bandwidth, size) -> (factor_ops, solve_ops)`` as the column-by-
#: column band Cholesky kernels counted them: the DPBSV price every
#: direct rule charges.  Poisson's n x n grid is ``(n, n^2)``,
#: Helmholtz's n^3 grid ``(n^2, n^3)``; the rest are odd shapes.
DPBSV_PRICES = {
    # Poisson, n = 1, 3, 7, 15, 31
    (1, 1): (1.0, 2.0),
    (3, 9): (70.0, 102.0),
    (7, 49): (1596.0, 1358.0),
    (15, 225): (29240.0, 13470.0),
    (31, 961): (496496.0, 119102.0),
    # Helmholtz, n = 3, 7 (n = 1 is Poisson's (1, 1))
    (9, 27): (1155.0, 846.0),
    (49, 343): (395675.0, 63014.0),
    # bandwidth 0, bandwidth past the matrix, and small odd shapes
    (0, 1): (1.0, 2.0),
    (0, 6): (6.0, 12.0),
    (1, 2): (4.0, 8.0),
    (2, 5): (22.0, 38.0),
    (4, 2): (4.0, 8.0),
    (5, 3): (10.0, 18.0),
    (3, 10): (80.0, 116.0),
    (6, 7): (84.0, 98.0),
    (9, 40): (1870.0, 1340.0),
    (17, 100): (15162.0, 6388.0),
}


def random_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a + a.T


def random_tridiagonal(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.normal(size=n - 1)


@pytest.mark.parametrize("shape", sorted(DPBSV_PRICES))
def test_dpbsv_price_matches_band_kernel_counts(shape):
    assert dpbsv_ops(*shape) == DPBSV_PRICES[shape]


class TestBlockCholesky:
    def test_poisson_solve_matches_dense(self):
        n = 6
        h = 1.0 / (n + 1)
        diag, sub = (array[0] for array in poisson_stencil_blocks(n, h))
        blocks, ops = block_cholesky_factor(diag, sub)
        rng = np.random.default_rng(0)
        b = rng.normal(size=(n, n))
        x, solve_ops = block_cholesky_solve(*blocks, b)
        residual = apply_laplacian_2d(x, h) - b
        assert np.abs(residual).max() < 1e-10
        assert ops > 0 and solve_ops > 0

    def test_random_spd_blocks(self):
        rng = np.random.default_rng(1)
        diag, sub = random_spd_blocks(rng, 6, 5)
        blocks, _ = block_cholesky_factor(diag, sub)
        b = rng.normal(size=(6, 5))
        x, _ = block_cholesky_solve(*blocks, b)
        assert_within_ulp_bound(
            x.reshape(-1),
            refined_solve(dense_from_blocks(diag, sub), b.reshape(-1)),
            np.float64)

    def test_not_positive_definite_rejected(self):
        diag = np.array([[[1.0, -5.0], [-5.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError):
            block_cholesky_factor(diag, np.zeros((0, 2, 2)))

    def test_solve_shape_checked(self):
        blocks, _ = block_cholesky_factor(
            *(array[0] for array in poisson_stencil_blocks(3, 0.25)))
        with pytest.raises(ValueError):
            block_cholesky_solve(*blocks, np.ones((3, 5)))


class TestHouseholder:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    def test_reconstruction(self, n):
        a = random_symmetric(n)
        d, e, q, ops = tridiagonalize_symmetric(a)
        t = np.diag(d)
        if n > 1:
            t += np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(q @ t @ q.T, a, atol=1e-10)
        assert np.allclose(q @ q.T, np.eye(n), atol=1e-10)

    def test_without_q(self):
        a = random_symmetric(10)
        d, e, q, _ = tridiagonalize_symmetric(a, accumulate_q=False)
        assert q is None
        ref = np.linalg.eigvalsh(a)
        values, _, _ = tridiagonal_eigen_qr(d, e)
        assert np.allclose(values, ref, atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            tridiagonalize_symmetric(np.arange(9.0).reshape(3, 3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            tridiagonalize_symmetric(np.zeros((3, 4)))


class TestTridiagonalQR:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_eigenvalues_match_numpy(self, n):
        d, e = random_tridiagonal(n, seed=n)
        t = np.diag(d)
        if n > 1:
            t += np.diag(e, 1) + np.diag(e, -1)
        values, vectors, _ = tridiagonal_eigen_qr(d, e, np.eye(n))
        assert np.allclose(values, np.linalg.eigvalsh(t), atol=1e-9)
        assert np.abs(t @ vectors - vectors * values).max() < 1e-8

    def test_dense_eigensolve_through_householder(self):
        a = random_symmetric(20, seed=3)
        d, e, q, _ = tridiagonalize_symmetric(a)
        values, vectors, _ = tridiagonal_eigen_qr(d, e, q)
        assert np.allclose(values, np.linalg.eigvalsh(a), atol=1e-9)
        assert np.abs(a @ vectors - vectors * values).max() < 1e-8

    def test_offdiagonal_length_checked(self):
        with pytest.raises(ValueError):
            tridiagonal_eigen_qr(np.ones(4), np.ones(5))

    def test_values_sorted_ascending(self):
        d, e = random_tridiagonal(15, seed=9)
        values, _, _ = tridiagonal_eigen_qr(d, e)
        assert np.all(np.diff(values) >= 0)


class TestBisection:
    def test_sturm_count_monotone_and_correct(self):
        d, e = random_tridiagonal(12, seed=5)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(t)
        for x in (-10.0, ref[3] + 1e-9, ref[7] + 1e-9, 10.0):
            assert sturm_count(d, e, x) == int(np.sum(ref < x))

    def test_bisect_selected_eigenvalues(self):
        d, e = random_tridiagonal(20, seed=6)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(t)
        indices = [0, 5, 19]
        values, ops = bisect_eigenvalues(d, e, indices)
        assert np.allclose(values, ref[indices], atol=1e-9)
        assert ops > 0

    def test_bisect_index_validated(self):
        d, e = random_tridiagonal(5, seed=0)
        with pytest.raises(ValueError):
            bisect_eigenvalues(d, e, [7])

    def test_inverse_iteration_residual(self):
        d, e = random_tridiagonal(30, seed=7)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(t)
        rng = np.random.default_rng(0)
        vector, _ = inverse_iteration(d, e, ref[10], rng)
        residual = t @ vector - ref[10] * vector
        assert np.linalg.norm(residual) < 1e-6
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_shifted_solve_matches_dense(self):
        d, e = random_tridiagonal(25, seed=8)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        rng = np.random.default_rng(1)
        b = rng.normal(size=25)
        shift = 0.321
        x = solve_shifted_tridiagonal(d, e, shift, b)
        assert np.allclose((t - shift * np.eye(25)) @ x, b, atol=1e-8)


class TestSVD:
    def test_embedding_structure(self):
        a = np.arange(6.0).reshape(2, 3)
        h = symmetric_embedding(a)
        assert h.shape == (5, 5)
        assert np.allclose(h, h.T)
        assert np.allclose(h[3:, :3], a)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_full_path_matches_numpy(self, k):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(8, 8))
        sigma, left, right, _ = singular_triplets_full(a, k)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sigma, ref[:k], atol=1e-9)
        approx, _ = rank_k_reconstruction(sigma, left, right)
        u, s, vt = np.linalg.svd(a)
        ref_approx = (u[:, :k] * s[:k]) @ vt[:k]
        assert np.allclose(approx, ref_approx, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 4])
    def test_bisection_path_matches_numpy(self, k):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(10, 10))
        sigma, left, right, _ = singular_triplets_topk(a, k, rng)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sigma, ref[:k], atol=1e-6)
        approx, _ = rank_k_reconstruction(sigma, left, right)
        u, s, vt = np.linalg.svd(a)
        ref_approx = (u[:, :k] * s[:k]) @ vt[:k]
        assert np.abs(approx - ref_approx).max() < 1e-5

    def test_rank_k_error_equals_tail_energy(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=(12, 12))
        k = 5
        sigma, left, right, _ = singular_triplets_full(a, k)
        approx, _ = rank_k_reconstruction(sigma, left, right)
        tail = np.linalg.svd(a, compute_uv=False)[k:]
        assert np.linalg.norm(a - approx) == pytest.approx(
            np.linalg.norm(tail), rel=1e-8)

    def test_topk_cheaper_than_full_for_small_k(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, size=(24, 24))
        _, _, _, ops_full = singular_triplets_full(a, 1)
        _, _, _, ops_topk = singular_triplets_topk(a, 1, rng)
        assert ops_topk < ops_full


class TestCG:
    def operator(self, n, extra=None):
        return (lambda v: apply_laplacian_1d(v, 1.0, extra)), 5.0 * n

    def test_solves_spd_system(self):
        n = 32
        apply_a, cost = self.operator(n)
        rng = np.random.default_rng(0)
        b = rng.normal(size=n)
        x, norms, ops = conjugate_gradient(apply_a, b, iterations=2 * n,
                                           operator_cost=cost,
                                           tolerance=1e-12)
        assert np.allclose(apply_a(x), b, atol=1e-8)
        assert norms[-1] < norms[0]
        assert ops > 0

    def test_tolerance_early_stop(self):
        n = 128
        apply_a, cost = self.operator(n)
        rng = np.random.default_rng(3)
        b = rng.normal(size=n)
        _, norms_loose, _ = conjugate_gradient(
            apply_a, b, iterations=500, operator_cost=cost,
            tolerance=0.3 * np.linalg.norm(b))
        _, norms_tight, _ = conjugate_gradient(
            apply_a, b, iterations=500, operator_cost=cost,
            tolerance=1e-10)
        assert len(norms_loose) < len(norms_tight)

    def test_jacobi_helps_on_perturbed_diagonal(self):
        n = 128
        rng = np.random.default_rng(1)
        extra = rng.uniform(0.0, 5.0, size=n)
        apply_a, cost = self.operator(n, extra)
        b = rng.normal(size=n)
        minv, pcost = jacobi_preconditioner(
            laplacian_1d_diagonal(n, 1.0, extra))
        tol = 1e-8 * np.linalg.norm(b)
        _, plain, _ = conjugate_gradient(apply_a, b, iterations=400,
                                         operator_cost=cost, tolerance=tol)
        _, precond, _ = conjugate_gradient(
            apply_a, b, iterations=400, apply_minv=minv,
            operator_cost=cost, preconditioner_cost=pcost, tolerance=tol)
        assert len(precond) <= len(plain)

    def test_polynomial_reduces_iterations(self):
        n = 256
        apply_a, cost = self.operator(n)
        rng = np.random.default_rng(2)
        b = rng.normal(size=n)
        tol = 1e-6 * np.linalg.norm(b)
        minv, pcost = polynomial_preconditioner(apply_a, 4, 1.0 / 4.0,
                                                cost, n)
        _, plain, _ = conjugate_gradient(apply_a, b, iterations=1000,
                                         operator_cost=cost, tolerance=tol)
        _, poly, _ = conjugate_gradient(
            apply_a, b, iterations=1000, apply_minv=minv,
            operator_cost=cost, preconditioner_cost=pcost, tolerance=tol)
        assert len(poly) < len(plain)

    def test_preconditioner_validation(self):
        with pytest.raises(ValueError):
            jacobi_preconditioner(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            polynomial_preconditioner(lambda v: v, 0, 0.1, 1.0, 4)
        with pytest.raises(ValueError):
            polynomial_preconditioner(lambda v: v, 2, -0.1, 1.0, 4)


class TestPoissonOps:
    def test_1d_matches_dense(self):
        n = 10
        t = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1))
        rng = np.random.default_rng(0)
        x = rng.normal(size=n)
        assert np.allclose(apply_laplacian_1d(x, 1.0), t @ x)

    def test_1d_extra_diagonal(self):
        n = 5
        extra = np.arange(1.0, 6.0)
        x = np.ones(n)
        expected = apply_laplacian_1d(x, 1.0) + extra * x
        assert np.allclose(apply_laplacian_1d(x, 1.0, extra), expected)

    def test_1d_diagonal(self):
        assert np.allclose(laplacian_1d_diagonal(4, 0.5),
                           np.full(4, 8.0))

    def test_2d_stencil_blocks_match_apply(self):
        n = 5
        h = 1.0 / (n + 1)
        dense = dense_from_blocks(
            *(array[0] for array in poisson_stencil_blocks(n, h)))
        rng = np.random.default_rng(1)
        u = rng.normal(size=(n, n))
        assert np.allclose(dense @ u.reshape(-1),
                           apply_laplacian_2d(u, h).reshape(-1))
