"""The block Cholesky solve's gemv sweeps.

Every block product in :func:`block_cholesky_solve` is one
``np.matvec`` (or ``np.vecmat``) call, which issues one BLAS gemv per
slice.  A stacked call must therefore equal looping the solve over
its slices bit for bit — whatever the batch size, dtype, right-hand
side strides or broadcast factor batch.  The sweeps run over views
split off once per solve, and must equal the per-step indexing they
replaced byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.banded import block_cholesky_solve
from repro.linalg.dtypes import as_float

from tests.test_batch_kernels import (
    FLOAT_DTYPES,
    assert_stacked_solve_equals_loop,
    block_factor,
    poisson_blocks,
    rng_for,
    stacked_poisson_factors,
)

GEMV_BATCH_SIZES = (1, 3, 17, 32)


def distinct_poisson_blocks(n, batch, dtype):
    """Blocks of ``batch`` distinct Poisson-like factors."""
    return block_factor(stacked_poisson_factors(n, batch, dtype))


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("batch", GEMV_BATCH_SIZES)
class TestStackedEqualsLoop:
    def test_shared_factor(self, batch, dtype):
        n = 7
        rng = rng_for(batch)
        assert_stacked_solve_equals_loop(
            poisson_blocks(n, dtype),
            rng.standard_normal((batch, n, n)).astype(dtype))

    def test_strided_right_hand_side(self, batch, dtype):
        n = 7
        rng = rng_for(100 + batch)
        wide = rng.standard_normal((batch, n, 2 * n)).astype(dtype)
        every_other = wide[..., ::2]
        assert not every_other.flags.c_contiguous
        assert_stacked_solve_equals_loop(poisson_blocks(n, dtype),
                                         every_other)
        transposed = np.swapaxes(wide[..., :n], -1, -2)
        assert not transposed.flags.c_contiguous
        assert_stacked_solve_equals_loop(poisson_blocks(n, dtype),
                                         transposed)

    def test_one_factor_per_slice(self, batch, dtype):
        n = 5
        rng = rng_for(200 + batch)
        assert_stacked_solve_equals_loop(
            distinct_poisson_blocks(n, batch, dtype),
            rng.standard_normal((batch, n, n)).astype(dtype))

    def test_factor_batch_broadcasts(self, batch, dtype):
        # A (batch, 1) factor batch against a (1, 3) stack of right-
        # hand sides, and a couplings batch diag_inv lacks.
        n = 5
        rng = rng_for(300 + batch)
        diag_inv, forward, backward = distinct_poisson_blocks(n, batch,
                                                              dtype)
        assert_stacked_solve_equals_loop(
            (diag_inv[:, None], forward[:, None], backward[:, None]),
            rng.standard_normal((1, 3, n, n)).astype(dtype))
        assert_stacked_solve_equals_loop(
            (diag_inv[0], forward[:, None], backward[0]),
            rng.standard_normal((3, n, n)).astype(dtype))


def test_vector_b_rejected_with_expected_shape():
    diag_inv, forward, backward = poisson_blocks(3)
    for b in (np.ones(9), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"\(\.\.\., m, p\)"):
            block_cholesky_solve(diag_inv, forward, backward, b)


def per_step_block_solve(diag_inv, forward, backward, b):
    """The block solve as it was before its sweeps ran over pre-split
    views, kept whole as the reference: every step indexes the block
    axis of ``forward``, ``backward`` and the solution afresh."""
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


def assert_solve_equals_per_step(blocks, b):
    x, ops = block_cholesky_solve(*blocks, b)
    expected, expected_ops = per_step_block_solve(*blocks, b)
    assert x.dtype == expected.dtype and x.shape == expected.shape
    assert x.tobytes() == expected.tobytes()
    assert ops == expected_ops


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
class TestPreSplitSweep:
    """The sweeps over pre-split views are bit-identical to indexing
    the block axis at every step: the same gemv runs on views of the
    same shape and strides."""

    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 3)])
    def test_batched_right_hand_sides(self, batch_shape, dtype):
        n = 7
        rng = rng_for(400 + len(batch_shape))
        assert_solve_equals_per_step(
            poisson_blocks(n, dtype),
            rng.standard_normal(batch_shape + (n, n)).astype(dtype))

    def test_strided_right_hand_side(self, dtype):
        n = 7
        rng = rng_for(500)
        wide = rng.standard_normal((3, n, 2 * n)).astype(dtype)
        for b in (wide[..., ::2], np.swapaxes(wide[..., :n], -1, -2)):
            assert not b.flags.c_contiguous
            assert_solve_equals_per_step(poisson_blocks(n, dtype), b)

    def test_factor_batches_of_different_ndims(self, dtype):
        # forward carries a batch axis backward lacks, and the other
        # way round, so each needs its own axis order.
        n = 5
        rng = rng_for(600)
        diag_inv, forward, backward = distinct_poisson_blocks(n, 3, dtype)
        b = rng.standard_normal((1, 3, n, n)).astype(dtype)
        assert_solve_equals_per_step(
            (diag_inv[0], forward[:, None], backward[0]), b)
        assert_solve_equals_per_step(
            (diag_inv[:, None], forward[0], backward[:, None]), b)
        assert_solve_equals_per_step(
            (diag_inv[0], forward[0], backward[:, None, None]), b[0])
