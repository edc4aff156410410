"""Banded Cholesky factorization and solve.

Stands in for LAPACK's DPBSV, which the paper's Poisson benchmark uses
as its direct solver choice ("one direct (band Cholesky factorization
through LAPACK's DPBSV routine)", Section 6.1.5).

The symmetric positive-definite band matrix is stored in LAPACK lower
band storage: ``band[i, j] == A[j + i, j]`` for ``0 <= i <= bandwidth``.
Factorization costs ~ N * bandwidth^2 operations; each solve ~ 4 * N *
bandwidth.  For the 2-D Poisson matrix on an n x n grid the bandwidth
is n, giving the O(N * n^2) = O(n^4) direct-solve scaling that makes
the direct choice lose to multigrid at large sizes — the crossover the
autotuner discovers.

Both kernels accept stacked inputs: a ``(..., bandwidth+1, size)``
band factors every slice through the same column sweep (the per-column
updates become whole-batch numpy calls), and the solve broadcasts a
stacked factor against a stacked ``(..., size)`` right-hand side — the
common serving case is one shared factor applied to a wave of B
right-hand sides.  Operation counts scale by the number of slices.

The forward sweep reads row ``j`` of ``L``, which band storage holds
along an anti-diagonal.  The solve gathers every forward coefficient in
one fancy-index call before the sweep (``forward[..., j, :reach]`` is
row ``j``'s ``L[j, j-1], ..., L[j, j-reach]``), so each column reads a
contiguous slice instead of building its own index arrays.

Input floating dtypes are preserved end to end (a float32 band yields
a float32 factor and solution); non-floating inputs are promoted to
float64.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = ["banded_cholesky_factor", "banded_cholesky_solve"]


def _slice_count(batch_shape: tuple[int, ...]) -> float:
    return float(np.prod(batch_shape, dtype=np.int64)) if batch_shape \
        else 1.0


@kernel(stacked=True, dtype_preserving=True)
def banded_cholesky_factor(band: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of an SPD band matrix, in band storage.

    ``band`` is ``(..., bandwidth+1, size)``; leading axes are batch
    dimensions factored together.  Returns ``(L_band, ops)`` where
    ``L_band[..., i, j] == L[j + i, j]`` per slice.  Raises
    :class:`numpy.linalg.LinAlgError` if any slice's pivot is not
    positive (matrix not positive definite).
    """
    band = np.array(as_float(band))  # copy: factored in place
    bandwidth = band.shape[-2] - 1
    size = band.shape[-1]
    ops = 0.0
    for j in range(size):
        pivot = band[..., 0, j]
        if np.any(pivot <= 0.0):
            raise np.linalg.LinAlgError(
                f"matrix not positive definite at column {j}")
        pivot = np.sqrt(pivot)
        band[..., 0, j] = pivot
        reach = min(bandwidth, size - 1 - j)
        if reach == 0:
            ops += 1
            continue
        band[..., 1:reach + 1, j] /= pivot[..., None]
        column = band[..., 1:reach + 1, j]
        # Rank-1 update of the trailing band columns.
        for i in range(1, reach + 1):
            band[..., 0:reach - i + 1, j + i] -= \
                column[..., i - 1, None] * column[..., i - 1:reach]
        ops += reach * (reach + 3) / 2 + 1
    return band, ops * _slice_count(band.shape[:-2])


@kernel(stacked=True, dtype_preserving=True)
def banded_cholesky_solve(factor: np.ndarray, b: np.ndarray
                          ) -> tuple[np.ndarray, float]:
    """Solve ``A x = b`` given the band Cholesky factor of ``A``.

    ``factor`` is ``(..., bandwidth+1, size)`` and ``b`` is
    ``(..., size)``; their batch axes broadcast, so one shared 2-D
    factor solves a stacked wave of right-hand sides in single
    vectorized substitution sweeps.
    """
    factor = as_float(factor)
    bandwidth = factor.shape[-2] - 1
    size = factor.shape[-1]
    x = np.array(as_float(b))  # copy: substituted in place
    if x.shape[-1:] != (size,):
        raise ValueError(
            f"b must have shape (..., {size}), got {x.shape}")
    if factor.ndim == 2 and x.ndim == 1:
        return _solve_single(factor, x, bandwidth, size)
    batch_shape = np.broadcast_shapes(factor.shape[:-2], x.shape[:-1])
    if x.shape[:-1] != batch_shape:
        x = np.broadcast_to(x, batch_shape + (size,)).copy()
    ops = 0.0
    # Forward substitution: L y = b.  Row j of L holds factor[i, j - i].
    rows, cols = _forward_index(bandwidth, size)
    forward = factor[..., rows, cols]
    for j in range(size):
        reach = min(bandwidth, j)
        if reach > 0:
            x[..., j] -= np.einsum("...k,...k->...",
                                   forward[..., j, :reach],
                                   x[..., j - reach:j][..., ::-1])
        x[..., j] /= factor[..., 0, j]
        ops += 2 * reach + 1
    # Backward substitution: L^T x = y.  Column j of L is factor[:, j].
    for j in range(size - 1, -1, -1):
        reach = min(bandwidth, size - 1 - j)
        if reach > 0:
            coeff = factor[..., 1:reach + 1, j]
            x[..., j] -= np.einsum("...k,...k->...", coeff,
                                   x[..., j + 1:j + reach + 1])
        x[..., j] /= factor[..., 0, j]
        ops += 2 * reach + 1
    return x, ops * _slice_count(batch_shape)


@functools.lru_cache(maxsize=64)
def _forward_index(bandwidth: int, size: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` gathering every forward-sweep coefficient.

    ``factor[..., rows, cols][..., j, k] == L[j, j-k-1]`` for
    ``k < min(bandwidth, j)``; the unused tail of each row points at
    ``factor[k+1, 0]`` and is never read.  Returned read-only because
    the cache hands the same arrays to every caller; bounded because
    this public kernel accepts any band shape.
    """
    offsets = np.arange(1, bandwidth + 1)
    rows = np.tile(offsets, (size, 1))
    cols = np.maximum(np.arange(size)[:, None] - offsets, 0)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _solve_single(factor: np.ndarray, x: np.ndarray, bandwidth: int,
                  size: int) -> tuple[np.ndarray, float]:
    """The scalar substitution sweeps for one factor and one RHS.

    The forward coefficients come from the one up-front gather, but the
    per-element arithmetic and operand layouts (a contiguous coefficient
    row against the reversed ``x`` window) are unchanged, so this path
    stays bit-identical to the seed kernel.
    """
    rows, cols = _forward_index(bandwidth, size)
    forward = factor[rows, cols]
    ops = 0.0
    for j in range(size):
        reach = min(bandwidth, j)
        if reach > 0:
            x[j] -= float(forward[j, :reach] @ x[j - reach:j][::-1])
        x[j] /= factor[0, j]
        ops += 2 * reach + 1
    for j in range(size - 1, -1, -1):
        reach = min(bandwidth, size - 1 - j)
        if reach > 0:
            x[j] -= float(factor[1:reach + 1, j] @ x[j + 1:j + reach + 1])
        x[j] /= factor[0, j]
        ops += 2 * reach + 1
    return x, ops
