"""The block Cholesky solve's gemv sweeps.

Every block product in :func:`block_cholesky_solve` is one
``np.matvec`` (or ``np.vecmat``) call, which issues one BLAS gemv per
slice.  A stacked call must therefore equal looping the solve over
its slices bit for bit — whatever the batch size, dtype, right-hand
side strides or broadcast factor batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.banded import block_cholesky_solve

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
