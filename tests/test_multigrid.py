"""Tests for the multigrid substrate: transfers, SOR, Helmholtz, cycles."""

import numpy as np
import pytest

from repro.multigrid.cycles import CycleShape, extract_cycle_shape, \
    render_cycle
from repro.multigrid.grids import (
    coarse_size,
    is_grid_size,
    prolong,
    restrict_full_weighting,
)
from repro.multigrid.helmholtz3d import (
    apply_helmholtz_3d,
    face_coefficients,
    helmholtz_blocks,
    manufactured_helmholtz_problem,
    restrict_coefficients,
)
from repro.multigrid.relax import sor_helmholtz_3d, sor_poisson_2d
from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.linalg.poisson_ops import apply_laplacian_2d
from repro.runtime.trace import ExecutionTrace

from dense_reference import dense_from_blocks


class TestGridSizes:
    def test_is_grid_size(self):
        assert [n for n in range(1, 70) if is_grid_size(n)] == \
            [1, 3, 7, 15, 31, 63]

    def test_coarse_size(self):
        assert coarse_size(7) == 3
        assert coarse_size(63) == 31

    def test_coarse_size_invalid(self):
        with pytest.raises(ValueError):
            coarse_size(1)
        with pytest.raises(ValueError):
            coarse_size(8)


class TestTransfers:
    def test_restriction_shape_2d(self):
        coarse, ops = restrict_full_weighting(np.ones((7, 7)))
        assert coarse.shape == (3, 3)
        assert ops > 0

    def test_restriction_shape_3d(self):
        coarse, _ = restrict_full_weighting(np.ones((7, 7, 7)))
        assert coarse.shape == (3, 3, 3)

    def test_restriction_preserves_constants_in_interior(self):
        coarse, _ = restrict_full_weighting(np.ones((15, 15)))
        # Away from the (zero) boundary, full weighting of 1 is 1.
        assert np.allclose(coarse[1:-1, 1:-1], 1.0)

    def test_restriction_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            restrict_full_weighting(np.ones((8, 8)))

    def test_prolongation_shape(self):
        fine, ops = prolong(np.ones((3, 3)))
        assert fine.shape == (7, 7)
        assert ops > 0

    def test_prolongation_interpolates_linearly(self):
        coarse = np.array([[1.0]])
        fine, _ = prolong(coarse)
        # Coarse node sits at fine (1, 1); its edge neighbours average
        # with the zero boundary.
        assert fine[1, 1] == 1.0
        assert fine[0, 1] == 0.5
        assert fine[1, 0] == 0.5
        assert fine[0, 0] == 0.25

    def test_variational_transpose_relation_2d(self):
        """Full weighting is prolongation^T / 4 in 2-D (/8 in 3-D)."""
        rng = np.random.default_rng(0)
        fine = rng.normal(size=(7, 7))
        coarse = rng.normal(size=(3, 3))
        restricted, _ = restrict_full_weighting(fine)
        prolonged, _ = prolong(coarse)
        lhs = float((restricted * coarse).sum())
        rhs = float((fine * prolonged).sum()) / 4.0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_variational_transpose_relation_3d(self):
        rng = np.random.default_rng(1)
        fine = rng.normal(size=(7, 7, 7))
        coarse = rng.normal(size=(3, 3, 3))
        restricted, _ = restrict_full_weighting(fine)
        prolonged, _ = prolong(coarse)
        lhs = float((restricted * coarse).sum())
        rhs = float((fine * prolonged).sum()) / 8.0
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSORPoisson:
    def problem(self, n=15, seed=0):
        h = 1.0 / (n + 1)
        rng = np.random.default_rng(seed)
        exact = rng.normal(size=(n, n))
        f = apply_laplacian_2d(exact, h)
        return exact, f, h

    def test_reduces_error(self):
        exact, f, h = self.problem()
        u0 = np.zeros_like(exact)
        u1, ops = sor_poisson_2d(u0, f, h, omega=1.5, iterations=50)
        err0 = np.linalg.norm(exact - u0)
        err1 = np.linalg.norm(exact - u1)
        assert err1 < 0.2 * err0
        assert ops == 50 * 6 * 15 * 15

    def test_exact_solution_is_fixed_point(self):
        exact, f, h = self.problem()
        u, _ = sor_poisson_2d(exact, f, h, omega=1.3, iterations=5)
        assert np.allclose(u, exact, atol=1e-10)

    def test_more_iterations_more_accurate(self):
        exact, f, h = self.problem()
        zero = np.zeros_like(exact)
        u_few, _ = sor_poisson_2d(zero, f, h, 1.5, 10)
        u_many, _ = sor_poisson_2d(zero, f, h, 1.5, 200)
        assert np.linalg.norm(exact - u_many) < \
            np.linalg.norm(exact - u_few)


class TestHelmholtz3D:
    def test_operator_matches_plane_blocks(self):
        n = 3
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 1.0, size=(n, n, n))
        b = rng.uniform(0.5, 1.0, size=(n, n, n))
        h = 0.25
        diag, sub = helmholtz_blocks(a, b, h)
        assert diag.shape == (n, n * n, n * n)
        assert sub.shape == (n - 1, n * n, n * n)
        dense = dense_from_blocks(diag, sub)
        assert np.array_equal(dense, dense.T)
        phi = rng.normal(size=(n, n, n))
        applied, _ = apply_helmholtz_3d(phi, a, b, h)
        assert np.allclose(dense @ phi.reshape(-1), applied.reshape(-1))

    def test_manufactured_problem_consistency(self):
        rng = np.random.default_rng(1)
        problem = manufactured_helmholtz_problem(7, rng)
        applied, _ = apply_helmholtz_3d(problem["phi_exact"],
                                        problem["a"], problem["b"],
                                        problem["h"])
        assert np.allclose(applied, problem["f"])

    def test_direct_solve_recovers_exact(self):
        rng = np.random.default_rng(2)
        problem = manufactured_helmholtz_problem(3, rng)
        blocks, _ = block_cholesky_factor(
            *helmholtz_blocks(problem["a"], problem["b"], problem["h"]))
        x, _ = block_cholesky_solve(*blocks, problem["f"].reshape(3, 9))
        assert np.allclose(x.reshape(3, 3, 3), problem["phi_exact"],
                           atol=1e-8)

    def test_sor_converges(self):
        rng = np.random.default_rng(3)
        problem = manufactured_helmholtz_problem(7, rng)
        faces = face_coefficients(problem["b"])
        zero = np.zeros_like(problem["f"])
        phi, ops = sor_helmholtz_3d(zero, problem["f"], problem["a"],
                                    faces, problem["h"], omega=1.4,
                                    iterations=300)
        err0 = np.linalg.norm(problem["phi_exact"])
        err = np.linalg.norm(phi - problem["phi_exact"])
        assert err < 1e-3 * err0
        assert ops > 0

    def test_face_coefficients_shapes(self):
        b = np.random.default_rng(4).uniform(0.5, 1.0, size=(5, 5, 5))
        faces = face_coefficients(b)
        assert len(faces) == 6
        for face in faces:
            assert face.shape == (5, 5, 5)
            assert np.all(face > 0)

    def test_restrict_coefficients(self):
        field = np.random.default_rng(5).uniform(0.5, 1.0, size=(7, 7, 7))
        coarse, ops = restrict_coefficients(field)
        assert coarse.shape == (3, 3, 3)
        # Averaged coefficients stay inside the original range near the
        # interior (boundary weighting can dip below).
        assert coarse.min() > 0.0
        assert ops > 0


class TestCycleShapes:
    def synthetic_trace(self) -> ExecutionTrace:
        trace = ExecutionTrace()
        trace.record("mg", 0, action="relax", n=15, count=2)
        trace.record("mg", 0, action="descend", n=7)
        trace.record("mg", 1, action="relax", n=7, count=1)
        trace.record("mg", 1, action="descend", n=3)
        trace.record("mg", 2, action="direct", n=3)
        trace.record("mg", 1, action="ascend", n=7)
        trace.record("mg", 0, action="ascend", n=15)
        trace.record("mg", 0, action="relax", n=15, count=2)
        return trace

    def test_extract_levels(self):
        shape = extract_cycle_shape(self.synthetic_trace(), 15)
        assert shape.depth == 2
        counts = shape.counts()
        assert counts["relax"] == 3
        assert counts["direct"] == 1
        assert counts["descend"] == 2

    def test_render_contains_symbols(self):
        shape = extract_cycle_shape(self.synthetic_trace(), 15)
        art = render_cycle(shape)
        assert "D" in art
        assert "o" in art
        assert "\\" in art and "/" in art
        assert "n=  15" in art

    def test_empty_trace(self):
        shape = extract_cycle_shape(ExecutionTrace(), 15)
        assert render_cycle(shape) == "(empty cycle)"

    def test_long_trace_compressed(self):
        trace = ExecutionTrace()
        for _ in range(500):
            trace.record("mg", 0, action="relax", n=15)
        shape = extract_cycle_shape(trace, 15)
        art = render_cycle(shape, max_width=40)
        assert max(len(line) for line in art.splitlines()) <= 60
