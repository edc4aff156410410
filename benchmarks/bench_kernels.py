"""Micro-benchmarks of the substrate kernels (pytest-benchmark proper).

These are conventional repeated-timing benchmarks of the hot kernels
every experiment rests on; they catch performance regressions in the
substrate rather than reproducing a specific paper figure.

The ``TestBatchedThroughput`` section is the throughput gate for the
stacked-kernel substrate: each test times a batched ``(B, …)`` call
against looping the scalar kernel over slices, prints a ``BENCH_JSON``
row (collected into CI's ``bench_results.jsonl`` artifact), and
*fails* if stacking is slower than the loop — with a hard ≥3x floor on
the headline SOR and cluster-assignment kernels.

The ``TestBinPackingKernels`` section gates the Fit-family packing
kernels against the per-item numpy scan they replaced, kept here as the
reference: each must run at least 1.5x faster at n = 128 and n = 2048.

The ``TestBlockSolveKernel`` section gates the block Cholesky solve
on one right-hand side against two solves kept here as references: the
two-product solve it replaced (at least 1.3x faster) and the same
folded solve with broadcast multiply-and-sum block products in place
of gemv (at least 1.5x faster).  Like ``TestPreSplitSweep`` it gates
the kernel, so both solve the Poisson factor with one grid line per
block (``_line_direct_blocks``), not the direct rule's grouped layout.

The ``TestPreSplitSweep`` section gates the block solve's sweeps over
views split off once per solve against the per-step indexing sweeps
they replaced, kept here as the reference: byte-identical solutions,
and at least 1.15x faster on one right-hand side at n = 7 and 15.  Its
B = 32 rows are recorded, not gated.

The ``TestGroupedLineBlocks`` section gates the Poisson direct rule's
layout: its solve over blocks of several whole grid lines must run at
least 1.5x faster than the same solve over one line per block on one
right-hand side at n = 7 and 15, agreeing within 16 ulp.  Its B = 8
rows are recorded, not gated.

The ``TestBlockFactorGates`` section gates the direct rules' block
Cholesky route against copies kept here of the band route it replaced
(band build, column-by-column band factor, band sweep): the Helmholtz
direct solve at n = 7 and a cold build of the Poisson direct blocks
at n = 31 must each run at least 5x faster, with agreeing solutions.

The ``TestBinPackingInputs`` section gates training-input generation
against one ``Generator.dirichlet`` call per bin, kept here as the
reference: the items must be byte-identical and generation at n = 128
at least 1.5x faster.

The ``TestStatistics`` section gates ``confidence_bound`` (its normal
quantile cached per confidence) against a copy kept here that re-runs
the 200-step quantile bisection on every call: the bounds must be
equal and the cached form at least 5x faster.
"""

import json
import time

import numpy as np
import pytest

from repro.autotuner.stats import confidence_bound, fit_normal, normal_cdf
from repro.binpacking.algorithms import (
    ALGORITHMS,
    EPSILON,
    first_fit_decreasing,
    next_fit,
)
from repro.binpacking.datagen import generate_items_with_known_optimal
from repro.clustering.kernels import assign_clusters
from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.linalg.cg import conjugate_gradient
from repro.linalg.dtypes import as_float
from repro.linalg.householder import tridiagonalize_symmetric
from repro.linalg.poisson_ops import apply_laplacian_1d, apply_laplacian_2d
from repro.linalg.tridiag_qr import tridiagonal_eigen_qr
from repro.multigrid.grids import (
    coarse_size,
    is_grid_size,
    prolong,
    restrict_full_weighting,
)
from repro.multigrid.helmholtz3d import (
    face_coefficients,
    helmholtz_blocks,
    manufactured_helmholtz_problem,
)
from repro.multigrid.relax import sor_poisson_2d
from repro.suite.poisson import _direct_blocks


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def _vcycle(u, f, n, h):
    """One full multigrid V-cycle from the batched kernels (2 pre- and
    post-relaxations per level); accepts stacked ``(B, n, n)`` inputs."""
    u, _ = sor_poisson_2d(u, f, h, 1.5, 2)
    if n >= 3 and is_grid_size(n):
        nc = coarse_size(n)
        residual = f - apply_laplacian_2d(u, h)
        coarse_f, _ = restrict_full_weighting(residual, core_ndim=2)
        correction = _vcycle(np.zeros_like(coarse_f), coarse_f, nc,
                             1.0 / (nc + 1))
        fine_correction, _ = prolong(correction, core_ndim=2)
        u = u + fine_correction
    u, _ = sor_poisson_2d(u, f, h, 1.5, 2)
    return u


def test_kernel_next_fit(benchmark, rng):
    items, _ = generate_items_with_known_optimal(4096, rng)
    benchmark(next_fit, items)


def test_kernel_first_fit_decreasing(benchmark, rng):
    items, _ = generate_items_with_known_optimal(2048, rng)
    benchmark(first_fit_decreasing, items)


def test_kernel_assign_clusters(benchmark, rng):
    points = rng.normal(size=(2048, 2))
    centroids = rng.normal(size=(64, 2))
    benchmark(assign_clusters, points, centroids)


def test_kernel_sor_sweeps(benchmark, rng):
    n = 63
    u = np.zeros((n, n))
    f = rng.normal(size=(n, n))
    benchmark(sor_poisson_2d, u, f, 1.0 / (n + 1), 1.5, 10)


def test_kernel_grid_transfers(benchmark, rng):
    fine = rng.normal(size=(63, 63))

    def transfer():
        coarse, _ = restrict_full_weighting(fine)
        prolong(coarse)

    benchmark(transfer)


def test_kernel_banded_cholesky(benchmark):
    # The direct solve DPBSV stands for: an uncached build and block
    # factor of the n x n grid's Laplacian, then one block solve, in
    # the direct rule's layout of a few grid lines per block.
    n = 15
    b = np.arange(float(n * n))

    def solve():
        blocks = _direct_blocks.__wrapped__(n, np.dtype(np.float64))[:3]
        block_cholesky_solve(*blocks, b.reshape(-1, blocks[0].shape[-1]))

    benchmark(solve)


def test_kernel_tridiagonal_eigensolver(benchmark, rng):
    a = rng.normal(size=(48, 48))
    a = a + a.T
    d, e, q, _ = tridiagonalize_symmetric(a)
    benchmark(tridiagonal_eigen_qr, d, e, q)


def test_kernel_conjugate_gradient(benchmark, rng):
    n = 511
    b = rng.normal(size=n)
    benchmark(conjugate_gradient, lambda x: apply_laplacian_1d(x, 1.0),
              b, iterations=50, operator_cost=5.0 * n, tolerance=1e-10)


def test_kernel_multigrid_vcycle(benchmark, rng):
    n = 63
    f = rng.normal(size=(n, n))
    benchmark(_vcycle, np.zeros((n, n)), f, n, 1.0 / (n + 1))


# ----------------------------------------------------------------------
# Batched-vs-looped throughput gate
# ----------------------------------------------------------------------
BATCH = 32

#: Kernels that MUST beat the per-slice loop by this factor at B=32
#: (the ISSUE's headline targets); every other gated kernel only has
#: to not lose to the loop.
HARD_FLOORS = {"sor_poisson_2d": 3.0, "assign_clusters": 3.0}


def _best_seconds(fn, repeats=9):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_seconds_interleaved(first, second, repeats=25):
    """Best-of times of two callables timed in alternation, so a slow
    spell of the host hits both alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for slot, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best


def _gate(kernel: str, stacked_fn, looped_fn, **extra):
    """Time both variants in alternation, emit BENCH_JSON, enforce the
    throughput gate."""
    for _ in range(2):  # warm both paths (shape caches, allocator pools)
        stacked_fn()
        looped_fn()
    stacked, looped = _best_seconds_interleaved(stacked_fn, looped_fn,
                                                repeats=9)
    speedup = looped / stacked
    row = {"bench": "kernels", "kernel": kernel, "batch": BATCH,
           "stacked_s": round(stacked, 6), "looped_s": round(looped, 6),
           "speedup": round(speedup, 2), **extra}
    print("BENCH_JSON " + json.dumps(row, sort_keys=True))
    floor = HARD_FLOORS.get(kernel, 1.0)
    assert speedup >= floor, (
        f"{kernel}: stacked B={BATCH} ran {speedup:.2f}x the loop, "
        f"below the {floor:.1f}x gate")


class TestBatchedThroughput:
    def test_batched_sor_throughput(self, rng):
        n = 63
        u = np.zeros((BATCH, n, n))
        f = rng.normal(size=(BATCH, n, n))
        h = 1.0 / (n + 1)
        _gate(
            "sor_poisson_2d",
            lambda: sor_poisson_2d(u, f, h, 1.5, 10),
            lambda: [sor_poisson_2d(u[i], f[i], h, 1.5, 10)
                     for i in range(BATCH)],
            n=n)

    def test_batched_assign_clusters_throughput(self, rng):
        points = rng.normal(size=(BATCH, 64, 2))
        centroids = rng.normal(size=(BATCH, 8, 2))
        _gate(
            "assign_clusters",
            lambda: assign_clusters(points, centroids),
            lambda: [assign_clusters(points[i], centroids[i])
                     for i in range(BATCH)],
            points=64, k=8)

    def test_batched_grid_transfers_throughput(self, rng):
        fine = rng.normal(size=(BATCH, 63, 63))

        def stacked():
            coarse, _ = restrict_full_weighting(fine, core_ndim=2)
            prolong(coarse, core_ndim=2)

        def looped():
            for i in range(BATCH):
                coarse, _ = restrict_full_weighting(fine[i])
                prolong(coarse)

        _gate("grid_transfers", stacked, looped, n=63)

    def test_batched_conjugate_gradient_throughput(self, rng):
        n = 255
        b = rng.normal(size=(BATCH, n))

        def operator(x):
            return apply_laplacian_1d(x, 1.0)

        _gate(
            "conjugate_gradient",
            lambda: conjugate_gradient(operator, b, iterations=25,
                                       operator_cost=5.0 * n),
            lambda: [conjugate_gradient(operator, b[i], iterations=25,
                                        operator_cost=5.0 * n)
                     for i in range(BATCH)],
            n=n)

    def test_batched_banded_solve_throughput(self, rng):
        # The Poisson direct rule's stacked solve: the block
        # substitution through the cached factor's blocks, in its
        # layout of a few grid lines per block.
        n = 15
        *blocks, _, _ = _direct_blocks(n, np.dtype(np.float64))
        rhs = rng.normal(size=(BATCH, n * n)).reshape(
            BATCH, -1, blocks[0].shape[-1])
        _gate(
            "block_cholesky_solve",
            lambda: block_cholesky_solve(*blocks, rhs),
            lambda: [block_cholesky_solve(*blocks, rhs[i])
                     for i in range(BATCH)],
            n=n)

    def test_batched_vcycle_throughput(self, rng):
        n = 63
        f = rng.normal(size=(BATCH, n, n))
        zero = np.zeros((BATCH, n, n))
        h = 1.0 / (n + 1)
        _gate(
            "multigrid_vcycle",
            lambda: _vcycle(zero, f, n, h),
            lambda: [_vcycle(zero[i], f[i], n, h)
                     for i in range(BATCH)],
            n=n)


# ----------------------------------------------------------------------
# Block solve gates
# ----------------------------------------------------------------------
#: One right-hand side through the folded-coupling block solve must
#: beat the two-product solve it replaced by this factor.
BLOCK_SOLVE_FLOOR = 1.3

#: One right-hand side through the gemv block solve must beat the same
#: folded solve written as broadcast multiply-and-sum products by this
#: factor.
GEMV_SOLVE_FLOOR = 1.5


def _line_direct_blocks(n, dtype):
    """The folded Poisson direct factor with one grid line per block,
    as the direct rule built it before it grouped lines: ``n`` blocks
    of ``n`` unknowns from the stencil, factored in float64, rounded
    once to ``dtype``.  Solves an ``(..., n, n)`` right-hand side as
    it is."""
    h = 1.0 / (n + 1)
    scale = 1.0 / (h * h)
    line = np.arange(n)
    stencil = np.zeros((n, n))
    stencil[line, line] = 4.0 * scale
    stencil[line[1:], line[:-1]] = stencil[line[:-1], line[1:]] = -scale
    blocks, _ = block_cholesky_factor(
        np.broadcast_to(stencil, (n, n, n)),
        np.broadcast_to(-scale * np.eye(n), (n - 1, n, n)))
    return tuple(block.astype(dtype) for block in blocks)


def _matvec(matrix, vector):
    """``matrix @ vector`` over broadcast batch axes, as a broadcast
    multiply and a sum."""
    return np.add.reduce(matrix * vector[..., None, :], axis=-1)


def _rmatvec(matrix, vector):
    """``matrix.T @ vector`` over broadcast batch axes, as a broadcast
    multiply and a sum."""
    return np.add.reduce(matrix * vector[..., :, None], axis=-2)


def _multiply_and_sum_block_solve(diag_inv, forward, backward, b):
    """The folded-coupling block solve with every block product a
    broadcast multiply and a sum, kept whole as the reference the gemv
    gate below times against."""
    diag_inv, forward, backward, b = (
        as_float(diag_inv), as_float(forward), as_float(backward),
        as_float(b))
    blocks, width = b.shape[-2:]
    couplings = max(blocks - 1, 0)
    batch_shape = np.broadcast_shapes(
        diag_inv.shape[:-3], forward.shape[:-3], backward.shape[:-3],
        b.shape[:-2])
    dtype = np.result_type(diag_inv, forward, backward, b)
    y = np.empty(batch_shape + (blocks, width), dtype=dtype)
    y[...] = _matvec(diag_inv, b)
    for k in range(1, blocks):
        y[..., k, :] -= _matvec(forward[..., k - 1, :, :], y[..., k - 1, :])
    x = np.empty_like(y)
    x[...] = _rmatvec(diag_inv, y)
    for k in range(blocks - 2, -1, -1):
        x[..., k, :] -= _matvec(backward[..., k, :, :], x[..., k + 1, :])
    ops = 2.0 * (blocks * 2 * width * width
                 + couplings * (2 * width * width + width))
    return x, ops * float(np.prod(batch_shape, dtype=np.int64))


def _two_product_block_solve(diag_inv, sub, b):
    """The block solve before its couplings were folded into the
    diagonal blocks, kept whole as the reference the gate below times
    against: two block products per step,
    ``y_k = L_k^{-1} (b_k - S_k y_{k-1})`` and
    ``x_k = L_k^{-T} (y_k - S_{k+1}^T x_{k+1})``."""
    diag_inv, sub, b = as_float(diag_inv), as_float(sub), as_float(b)
    blocks, width = b.shape[-2:]
    couplings = max(blocks - 1, 0)
    if diag_inv.shape[-3:] != (blocks, width, width) or \
            sub.shape[-3:] != (couplings, width, width):
        raise ValueError("mismatched blocks")
    batch_shape = np.broadcast_shapes(diag_inv.shape[:-3],
                                      sub.shape[:-3], b.shape[:-2])
    dtype = np.result_type(diag_inv, sub, b)
    y = np.empty(batch_shape + (blocks, width), dtype=dtype)
    for k in range(blocks):
        residual = b[..., k, :]
        if k:
            residual = residual - _matvec(sub[..., k - 1, :, :],
                                          y[..., k - 1, :])
        y[..., k, :] = _matvec(diag_inv[..., k, :, :], residual)
    x = np.empty_like(y)
    for k in range(blocks - 1, -1, -1):
        residual = y[..., k, :]
        if k < blocks - 1:
            residual = residual - _rmatvec(sub[..., k, :, :],
                                           x[..., k + 1, :])
        x[..., k, :] = _rmatvec(diag_inv[..., k, :, :], residual)
    ops = 2.0 * (blocks * 2 * width * width
                 + couplings * (2 * width * width + width))
    return x, ops * float(np.prod(batch_shape, dtype=np.int64))


class TestBlockSolveKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [7, 15])
    def test_folded_solve_beats_two_product_solve(self, rng, n, dtype):
        dtype = np.dtype(dtype)
        diag_inv, forward, backward = _line_direct_blocks(n, dtype)
        factor = _band_cholesky_factor(
            _poisson_2d_band(n, 1.0 / (n + 1), dtype=dtype))
        # The couplings S_k, gathered from band storage as the direct
        # rule gathered them before folding.
        line = np.arange(n)
        a, c = line[:, None], line[None, :]
        sub = np.triu(factor[(n + a - c) % (n + 1),
                             (line[:-1] * n)[:, None, None] + c])
        rhs = rng.normal(size=(n, n)).astype(dtype)
        reference, reference_ops = _two_product_block_solve(
            diag_inv, sub, rhs)
        folded, ops = block_cholesky_solve(diag_inv, forward, backward, rhs)
        assert ops == reference_ops
        bound = 16 * np.finfo(dtype).eps * np.abs(reference).max()
        assert np.abs(folded - reference).max() <= bound
        folded_s, reference_s = _best_seconds_interleaved(
            lambda: block_cholesky_solve(diag_inv, forward, backward, rhs),
            lambda: _two_product_block_solve(diag_inv, sub, rhs))
        speedup = reference_s / folded_s
        row = {"bench": "kernels", "kernel": "block_cholesky_solve_b1",
               "n": n, "dtype": dtype.name, "folded_s": round(folded_s, 7),
               "two_product_s": round(reference_s, 7),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= BLOCK_SOLVE_FLOOR, (
            f"block solve at n={n} {dtype.name} ran {speedup:.2f}x the "
            f"two-product solve, below the {BLOCK_SOLVE_FLOOR:.1f}x gate")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [7, 15])
    def test_gemv_solve_beats_multiply_and_sum_solve(self, rng, n, dtype):
        dtype = np.dtype(dtype)
        blocks = _line_direct_blocks(n, dtype)
        rhs = rng.normal(size=(n, n)).astype(dtype)
        reference, reference_ops = _multiply_and_sum_block_solve(
            *blocks, rhs)
        solution, ops = block_cholesky_solve(*blocks, rhs)
        assert ops == reference_ops
        assert solution.dtype == reference.dtype == dtype
        bound = 16 * np.finfo(dtype).eps * np.abs(reference).max()
        assert np.abs(solution - reference).max() <= bound
        gemv_s, reference_s = _best_seconds_interleaved(
            lambda: block_cholesky_solve(*blocks, rhs),
            lambda: _multiply_and_sum_block_solve(*blocks, rhs))
        speedup = reference_s / gemv_s
        row = {"bench": "kernels", "kernel": "block_cholesky_solve_gemv_b1",
               "n": n, "dtype": dtype.name, "gemv_s": round(gemv_s, 7),
               "multiply_and_sum_s": round(reference_s, 7),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= GEMV_SOLVE_FLOOR, (
            f"gemv block solve at n={n} {dtype.name} ran {speedup:.2f}x "
            f"the multiply-and-sum solve, below the "
            f"{GEMV_SOLVE_FLOOR:.1f}x gate")


#: One right-hand side through the sweeps over pre-split views must
#: beat the per-step indexing sweeps they replaced by this factor.
PRE_SPLIT_FLOOR = 1.15


def _per_step_block_solve(diag_inv, forward, backward, b):
    """The gemv block solve before its sweeps ran over pre-split
    views, kept whole as the reference the gate below times against:
    every step indexes the block axis afresh."""
    diag_inv, forward, backward, b = (
        as_float(diag_inv), as_float(forward), as_float(backward),
        as_float(b))
    blocks, width = b.shape[-2:]
    couplings = max(blocks - 1, 0)
    batch_shape = np.broadcast_shapes(
        diag_inv.shape[:-3], forward.shape[:-3], backward.shape[:-3],
        b.shape[:-2])
    dtype = np.result_type(diag_inv, forward, backward, b)
    y = np.empty(batch_shape + (blocks, width), dtype=dtype)
    y[...] = np.matvec(diag_inv, b)
    for k in range(1, blocks):
        y[..., k, :] -= np.matvec(forward[..., k - 1, :, :],
                                  y[..., k - 1, :])
    x = np.empty_like(y)
    x[...] = np.vecmat(y, diag_inv)
    for k in range(blocks - 2, -1, -1):
        x[..., k, :] -= np.matvec(backward[..., k, :, :], x[..., k + 1, :])
    ops = 2.0 * (blocks * 2 * width * width
                 + couplings * (2 * width * width + width))
    return x, ops * float(np.prod(batch_shape, dtype=np.int64))


class TestPreSplitSweep:
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [7, 15])
    def test_pre_split_solve_beats_per_step_solve(self, rng, n, dtype,
                                                  batch):
        """Gated at B=1, where the per-step views are most of the
        sweep; B=32 is recorded, not gated."""
        dtype = np.dtype(dtype)
        blocks = _line_direct_blocks(n, dtype)
        shape = (n, n) if batch == 1 else (batch, n, n)
        rhs = rng.normal(size=shape).astype(dtype)
        solution, ops = block_cholesky_solve(*blocks, rhs)
        reference, reference_ops = _per_step_block_solve(*blocks, rhs)
        assert solution.tobytes() == reference.tobytes()
        assert ops == reference_ops
        pre_split_s, reference_s = _best_seconds_interleaved(
            lambda: block_cholesky_solve(*blocks, rhs),
            lambda: _per_step_block_solve(*blocks, rhs), repeats=200)
        speedup = reference_s / pre_split_s
        row = {"bench": "kernels", "kernel": "block_cholesky_solve_pre_split",
               "n": n, "dtype": dtype.name, "batch": batch,
               "pre_split_s": round(pre_split_s, 7),
               "per_step_s": round(reference_s, 7),
               "speedup": round(speedup, 2), "gated": batch == 1}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        if batch == 1:
            assert speedup >= PRE_SPLIT_FLOOR, (
                f"pre-split block solve at n={n} {dtype.name} ran "
                f"{speedup:.2f}x the per-step solve, below the "
                f"{PRE_SPLIT_FLOOR:.2f}x gate")


#: One right-hand side through the direct rule's grouped blocks (several
#: whole grid lines per block) must beat the same solve over one grid
#: line per block by this factor.
GROUPED_LINES_FLOOR = 1.5


class TestGroupedLineBlocks:
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [7, 15])
    def test_grouped_solve_beats_line_solve(self, rng, n, dtype, batch):
        """Gated at B=1, the serving path's usual wave; B=8 is
        recorded, not gated."""
        dtype = np.dtype(dtype)
        grouped = _direct_blocks(n, dtype)[:3]
        lines = _line_direct_blocks(n, dtype)
        shape = (n, n) if batch == 1 else (batch, n, n)
        rhs = rng.normal(size=shape).astype(dtype)
        rows = rhs.reshape(*rhs.shape[:-2], -1, grouped[0].shape[-1])

        def grouped_solve():
            return block_cholesky_solve(*grouped, rows)[0].reshape(shape)

        def line_solve():
            return block_cholesky_solve(*lines, rhs)[0]

        solution, reference = grouped_solve(), line_solve()
        assert solution.dtype == reference.dtype == dtype
        bound = 16 * np.finfo(dtype).eps * np.abs(reference).max()
        assert np.abs(solution - reference).max() <= bound
        grouped_s, line_s = _best_seconds_interleaved(
            grouped_solve, line_solve, repeats=200)
        speedup = line_s / grouped_s
        row = {"bench": "kernels", "kernel": "poisson_direct_grouped_lines",
               "n": n, "dtype": dtype.name, "batch": batch,
               "lines_per_block": grouped[0].shape[-1] // n,
               "grouped_s": round(grouped_s, 7), "line_s": round(line_s, 7),
               "speedup": round(speedup, 2), "gated": batch == 1}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        if batch == 1:
            assert speedup >= GROUPED_LINES_FLOOR, (
                f"grouped direct solve at n={n} {dtype.name} ran "
                f"{speedup:.2f}x the line-by-line solve, below the "
                f"{GROUPED_LINES_FLOOR:.1f}x gate")


# ----------------------------------------------------------------------
# Block factor gates, against the band route
# ----------------------------------------------------------------------
#: The block Cholesky route must beat the band route it replaced by
#: this factor: the Helmholtz direct solve at n = 7, and a cold build
#: of the Poisson direct blocks at n = 31.
BLOCK_FACTOR_FLOOR = 5.0


def _poisson_2d_band(n, h, dtype=None):
    """The 2-D Poisson matrix in LAPACK lower band storage, bandwidth n,
    built as the band route built it."""
    size = n * n
    scale = 1.0 / (h * h)
    band = np.zeros((n + 1, size),
                    dtype=np.float64 if dtype is None else dtype)
    band[0, :] = 4.0 * scale
    for j in range(size - 1):
        if (j + 1) % n != 0:
            band[1, j] = -scale
    band[n, :size - n] = -scale
    return band


def _helmholtz_band(a, b, h, alpha=1.0, beta=1.0):
    """The 3-D Helmholtz operator in lower band storage, bandwidth n^2,
    built as the band route built it."""
    a = as_float(a)
    n = a.shape[0]
    size = n ** 3
    scale = beta / (h * h)
    bm_x, bp_x, bm_y, bp_y, bm_z, bp_z = face_coefficients(b)
    diagonal = (alpha * a + scale
                * (bm_x + bp_x + bm_y + bp_y + bm_z + bp_z))
    band = np.zeros((n * n + 1, size), dtype=diagonal.dtype)
    band[0, :] = diagonal.reshape(-1)
    indices = np.arange(size)
    valid_z = indices % n < n - 1
    valid_y = (indices // n) % n < n - 1
    band[1, indices[valid_z]] = (-scale * bp_z).reshape(-1)[valid_z]
    band[n, indices[valid_y]] = (-scale * bp_y).reshape(-1)[valid_y]
    band[n * n, :size - n * n] = (-scale * bp_x).reshape(-1)[
        :size - n * n]
    return band


def _band_cholesky_factor(band):
    """The column-by-column band Cholesky factor the block factor
    replaced, kept whole as the reference."""
    band = np.array(as_float(band))
    bandwidth = band.shape[-2] - 1
    size = band.shape[-1]
    for j in range(size):
        pivot = band[..., 0, j]
        if np.any(pivot <= 0.0):
            raise np.linalg.LinAlgError(
                f"matrix not positive definite at column {j}")
        pivot = np.sqrt(pivot)
        band[..., 0, j] = pivot
        reach = min(bandwidth, size - 1 - j)
        if reach == 0:
            continue
        band[..., 1:reach + 1, j] /= pivot[..., None]
        column = band[..., 1:reach + 1, j]
        for i in range(1, reach + 1):
            band[..., 0:reach - i + 1, j + i] -= \
                column[..., i - 1, None] * column[..., i - 1:reach]
    return band


def _band_cholesky_solve(factor, b):
    """The band sweep the block solve replaced, kept as the reference:
    one gather of the forward coefficients, then one column per step."""
    x = np.array(as_float(b))
    bandwidth, size = factor.shape[0] - 1, factor.shape[1]
    offsets = np.arange(1, bandwidth + 1)
    forward = factor[np.tile(offsets, (size, 1)),
                     np.maximum(np.arange(size)[:, None] - offsets, 0)]
    for j in range(size):
        reach = min(bandwidth, j)
        if reach > 0:
            x[j] -= float(forward[j, :reach] @ x[j - reach:j][::-1])
        x[j] /= factor[0, j]
    for j in range(size - 1, -1, -1):
        reach = min(bandwidth, size - 1 - j)
        if reach > 0:
            x[j] -= float(factor[1:reach + 1, j] @ x[j + 1:j + reach + 1])
        x[j] /= factor[0, j]
    return x


def _band_route_direct_blocks(n, dtype):
    """The Poisson direct blocks as the band route built them: factor
    the band, gather ``L_k`` and ``S_k`` out of band storage, invert
    and fold in float64, round once."""
    factor = _band_cholesky_factor(
        _poisson_2d_band(n, 1.0 / (n + 1), dtype=dtype))
    line = np.arange(n)
    a, c = line[:, None], line[None, :]
    starts = (line * n)[:, None, None]
    diag = np.tril(factor[(a - c) % (n + 1), starts + c])
    sub = np.triu(factor[(n + a - c) % (n + 1), starts[:-1] + c]
                  ).astype(np.float64)
    inverse = np.linalg.inv(diag.astype(np.float64))
    blocks = (inverse, inverse[1:] @ sub,
              np.swapaxes(inverse[:-1], -1, -2) @ np.swapaxes(sub, -1, -2))
    return tuple(block.astype(dtype) for block in blocks)


def _block_gate_row(kernel, n, block_s, band_s, **extra):
    speedup = band_s / block_s
    row = {"bench": "kernels", "kernel": kernel, "n": n,
           "block_s": round(block_s, 7), "band_s": round(band_s, 7),
           "speedup": round(speedup, 2), **extra}
    print("BENCH_JSON " + json.dumps(row, sort_keys=True))
    assert speedup >= BLOCK_FACTOR_FLOOR, (
        f"{kernel} at n={n} ran {speedup:.2f}x the band route, below the "
        f"{BLOCK_FACTOR_FLOOR:.0f}x gate")


class TestBlockFactorGates:
    def test_helmholtz_direct_beats_band_route(self, rng):
        n = 7
        problem = manufactured_helmholtz_problem(n, rng)
        a, b, f, h = problem["a"], problem["b"], problem["f"], problem["h"]

        def block_route():
            blocks, _ = block_cholesky_factor(*helmholtz_blocks(a, b, h))
            return block_cholesky_solve(*blocks, f.reshape(n, n * n))[0]

        def band_route():
            factor = _band_cholesky_factor(_helmholtz_band(a, b, h))
            return _band_cholesky_solve(factor, f.reshape(-1))

        solution, reference = block_route(), band_route()
        bound = 32 * np.finfo(np.float64).eps * np.abs(reference).max()
        assert np.abs(solution.reshape(-1) - reference).max() <= bound
        block_s, band_s = _best_seconds_interleaved(block_route, band_route,
                                                    repeats=5)
        _block_gate_row("helmholtz_direct_block", n, block_s, band_s)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cold_poisson_blocks_beat_band_route(self, rng, dtype):
        n = 31
        dtype = np.dtype(dtype)
        build = _direct_blocks.__wrapped__  # uncached: a cold build
        rhs = rng.normal(size=(n, n)).astype(dtype)
        solution, _ = block_cholesky_solve(*build(n, dtype)[:3], rhs)
        reference, _ = block_cholesky_solve(
            *_band_route_direct_blocks(n, dtype), rhs)
        assert solution.dtype == reference.dtype == dtype
        # Both solve the same system; the band route's float32 factor is
        # formed in float32, so its error sets the bound.
        bound = 128 * np.finfo(dtype).eps * np.abs(reference).max()
        assert np.abs(solution - reference).max() <= bound
        block_s, band_s = _best_seconds_interleaved(
            lambda: build(n, dtype),
            lambda: _band_route_direct_blocks(n, dtype), repeats=5)
        _block_gate_row("poisson_direct_blocks_cold", n, block_s, band_s,
                        dtype=dtype.name)


# ----------------------------------------------------------------------
# float32-vs-float64 throughput gate
# ----------------------------------------------------------------------
#: Batched float32 SOR must beat float64 by this factor at B=32 — the
#: memory-bandwidth payoff the ``precision()`` tunable is priced on
#: (half the bytes per sweep on a bandwidth-bound kernel).
PRECISION_FLOOR = 1.3


class TestPrecisionThroughput:
    def test_batched_float32_sor_beats_float64(self, rng):
        n = 127
        f64 = rng.normal(size=(BATCH, n, n))
        f32 = f64.astype(np.float32)
        u64 = np.zeros_like(f64)
        u32 = np.zeros_like(f32)
        h = 1.0 / (n + 1)

        def run64():
            sor_poisson_2d(u64, f64, h, 1.5, 10)

        def run32():
            sor_poisson_2d(u32, f32, h, 1.5, 10)

        for _ in range(2):  # warm both paths
            run64()
            run32()
        float64_s = _best_seconds(run64)
        float32_s = _best_seconds(run32)
        speedup = float64_s / float32_s
        out, _ = sor_poisson_2d(u32, f32, h, 1.5, 1)
        assert out.dtype == np.float32  # the kernel preserves dtype
        row = {"bench": "kernels", "kernel": "sor_poisson_2d_float32",
               "batch": BATCH, "n": n,
               "float64_s": round(float64_s, 6),
               "float32_s": round(float32_s, 6),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= PRECISION_FLOOR, (
            f"batched float32 SOR ran {speedup:.2f}x float64 at "
            f"B={BATCH}, below the {PRECISION_FLOOR:.1f}x gate")


# ----------------------------------------------------------------------
# Bin-packing kernel gate
# ----------------------------------------------------------------------
#: The list-based Fit-family kernels must beat the numpy scan by this
#: factor at every gated size.
PACKING_FLOOR = 1.5


class _NumpyBinState:
    """Open bins scanned with numpy: 3-5 array calls per item."""

    def __init__(self, max_bins, capacity):
        self.remaining = np.full(max_bins, capacity)
        self.used = 0
        self.ops = 0.0

    def open_bin(self, item):
        index = self.used
        self.remaining[index] -= item
        self.used += 1
        return index

    def place(self, index, item):
        self.remaining[index] -= item
        return index

    def fits(self, item):
        return self.remaining[:self.used] >= item - EPSILON


def _numpy_first_fit(items, capacity=1.0):
    state = _NumpyBinState(len(items), capacity)
    assignment = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        fits = state.fits(item)
        if fits.any():
            index = int(np.argmax(fits))
            state.ops += index + 1
            assignment[i] = state.place(index, item)
        else:
            state.ops += state.used
            assignment[i] = state.open_bin(item)
    return assignment, state.used, state.ops


def _numpy_last_fit(items, capacity=1.0):
    state = _NumpyBinState(len(items), capacity)
    assignment = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        fits = state.fits(item)
        if fits.any():
            back_offset = int(np.argmax(fits[::-1]))
            state.ops += back_offset + 1
            assignment[i] = state.place(state.used - 1 - back_offset, item)
        else:
            state.ops += state.used
            assignment[i] = state.open_bin(item)
    return assignment, state.used, state.ops


def _numpy_best_fit(items, capacity=1.0):
    state = _NumpyBinState(len(items), capacity)
    assignment = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        fits = state.fits(item)
        state.ops += state.used
        if fits.any():
            slack = np.where(fits, state.remaining[:state.used], np.inf)
            assignment[i] = state.place(int(np.argmin(slack)), item)
        else:
            assignment[i] = state.open_bin(item)
    return assignment, state.used, state.ops


def _numpy_worst_fit(items, capacity=1.0, kth=1):
    state = _NumpyBinState(len(items), capacity)
    assignment = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        fits = state.fits(item)
        state.ops += state.used
        if fits.any():
            slack = np.where(fits, state.remaining[:state.used], -np.inf)
            rank = min(kth, int(fits.sum())) - 1
            order = np.argsort(slack)
            index = int(order[len(order) - 1 - rank])
            assignment[i] = state.place(index, item)
        else:
            assignment[i] = state.open_bin(item)
    return assignment, state.used, state.ops


_NUMPY_SCANS = {
    "FirstFit": _numpy_first_fit,
    "LastFit": _numpy_last_fit,
    "BestFit": _numpy_best_fit,
    "WorstFit": _numpy_worst_fit,
    "AlmostWorstFit": lambda items: _numpy_worst_fit(items, kth=2),
}


def _numpy_scan(name, items):
    """The numpy reference of ``ALGORITHMS[name]``: (bins, ops)."""
    base = name.removesuffix("Decreasing")
    if base == name:
        _, num_bins, ops = _NUMPY_SCANS[name](items)
        return num_bins, ops
    _, num_bins, ops = _NUMPY_SCANS[base](
        items[np.argsort(-items, kind="stable")])
    return num_bins, ops + len(items) * np.log2(max(len(items), 2))


class TestBinPackingKernels:
    @pytest.mark.parametrize("n", [128, 2048])
    @pytest.mark.parametrize("name", [
        name + suffix
        for name in ("FirstFit", "LastFit", "BestFit", "WorstFit",
                     "AlmostWorstFit")
        for suffix in ("", "Decreasing")])
    def test_fit_kernel_beats_numpy_scan(self, name, n):
        items, _ = generate_items_with_known_optimal(
            n, np.random.default_rng(n))
        algorithm = ALGORITHMS[name]
        packing = algorithm(items)
        # Continuous items have no exact ties, so the two agree exactly.
        assert (packing.num_bins, packing.ops) == pytest.approx(
            _numpy_scan(name, items))
        algorithm(items)  # warm
        kernel_s = _best_seconds(lambda: algorithm(items), repeats=5)
        numpy_s = _best_seconds(lambda: _numpy_scan(name, items),
                                repeats=5)
        speedup = numpy_s / kernel_s
        row = {"bench": "kernels", "kernel": f"binpacking_{name}", "n": n,
               "kernel_s": round(kernel_s, 6), "numpy_s": round(numpy_s, 6),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= PACKING_FLOOR, (
            f"{name} at n={n} ran {speedup:.2f}x the numpy scan, "
            f"below the {PACKING_FLOOR:.1f}x gate")


# ----------------------------------------------------------------------
# Bin-packing input generation gate
# ----------------------------------------------------------------------
#: Input generation must beat one ``Generator.dirichlet`` call per bin
#: by this factor at n = 128.
DATAGEN_FLOOR = 1.5


def _dirichlet_items(n, rng, two_piece_probability=0.6, max_pieces=4):
    """The generator's default loop with one dirichlet call per bin."""
    pieces = []
    generated = bins = 0
    while generated < n:
        remaining = n - generated
        if remaining <= max_pieces:
            count = remaining
        elif rng.random() < two_piece_probability:
            count = 2
        else:
            count = int(rng.integers(3, max_pieces + 1))
        pieces.append(rng.dirichlet(np.ones(count)))
        generated += count
        bins += 1
    items = np.concatenate(pieces)
    rng.shuffle(items)
    return items, bins


class TestBinPackingInputs:
    def test_generation_beats_dirichlet_reference(self):
        n, calls = 128, 24
        for seed in range(calls):
            items, bins = generate_items_with_known_optimal(
                n, np.random.default_rng(seed))
            expected, expected_bins = _dirichlet_items(
                n, np.random.default_rng(seed))
            assert items.tobytes() == expected.tobytes()
            assert bins == expected_bins
        fast_rng, reference_rng = (np.random.default_rng(1),
                                   np.random.default_rng(1))

        def generated():
            for _ in range(calls):
                generate_items_with_known_optimal(n, fast_rng)

        def reference():
            for _ in range(calls):
                _dirichlet_items(n, reference_rng)

        generated_s, reference_s = _best_seconds_interleaved(
            generated, reference, repeats=15)
        speedup = reference_s / generated_s
        row = {"bench": "kernels", "kernel": "binpacking_datagen", "n": n,
               "calls": calls, "generated_s": round(generated_s, 6),
               "dirichlet_s": round(reference_s, 6),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= DATAGEN_FLOOR, (
            f"input generation at n={n} ran {speedup:.2f}x the dirichlet "
            f"reference, below the {DATAGEN_FLOOR:.1f}x gate")


#: The cached-quantile bound must beat re-running the bisection by this.
QUANTILE_FLOOR = 5.0


def _bisection_confidence_bound(values, confidence, side):
    """``confidence_bound`` as it was before the quantile was cached:
    a 200-step bisection on the normal CDF on every call."""
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


class TestStatistics:
    def test_cached_quantile_confidence_bound(self):
        values = [0.91, 0.87, 0.95, 0.9, 0.88, 0.93, 0.9, 0.89]
        confidences = (0.5, 0.9, 0.95, 0.99, 0.999)
        for confidence in confidences:
            for side in ("lower", "upper"):
                assert confidence_bound(values, confidence, side) == \
                    _bisection_confidence_bound(values, confidence, side)
        calls = 20

        def cached():
            for _ in range(calls):
                confidence_bound(values, 0.9, "lower")

        def reference():
            for _ in range(calls):
                _bisection_confidence_bound(values, 0.9, "lower")

        cached_s, reference_s = _best_seconds_interleaved(
            cached, reference, repeats=15)
        speedup = reference_s / cached_s
        row = {"bench": "kernels", "kernel": "confidence_bound_quantile",
               "samples": len(values), "calls": calls,
               "cached_s": round(cached_s, 6),
               "bisection_s": round(reference_s, 6),
               "speedup": round(speedup, 2)}
        print("BENCH_JSON " + json.dumps(row, sort_keys=True))
        assert speedup >= QUANTILE_FLOOR, (
            f"confidence_bound ran {speedup:.2f}x the bisection "
            f"reference, below the {QUANTILE_FLOOR:.1f}x gate")
