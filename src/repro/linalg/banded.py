"""Banded Cholesky factorization and solves.

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

Three kernels:

* :func:`banded_cholesky_factor` factors a band, and accepts stacked
  ``(..., bandwidth+1, size)`` bands (the per-column updates become
  whole-batch numpy calls; the operation count scales by the number of
  slices).
* :func:`banded_cholesky_solve` substitutes one right-hand side
  through one band factor, column by column.  The forward sweep reads
  row ``j`` of ``L``, which band storage holds along an anti-diagonal,
  so every forward coefficient is gathered in one fancy-index call
  before the sweep.
* :func:`block_cholesky_solve` substitutes through a factor that is
  block-bidiagonal — the 2-D Laplacian's, whose ``L`` has one
  lower-triangular diagonal block per grid line and upper-triangular
  blocks below them — in 2m block steps instead of 2N column steps,
  and accepts stacked right-hand sides and factors.  Its couplings come
  pre-multiplied by the inverse diagonal blocks, so each step takes one
  block product: one BLAS gemv per slice, never gemm, so a stacked
  call rounds exactly like the slice loop.

Input floating dtypes are preserved end to end (a float32 band yields
a float32 factor and solution); non-floating inputs are promoted to
float64.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = ["banded_cholesky_factor", "banded_cholesky_solve",
           "block_cholesky_solve"]


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


@kernel(stacked=False, dtype_preserving=True)
def banded_cholesky_solve(factor: np.ndarray, b: np.ndarray
                          ) -> tuple[np.ndarray, float]:
    """Solve ``A x = b`` given the band Cholesky factor of ``A``.

    ``factor`` is one ``(bandwidth+1, size)`` band factor and ``b`` one
    ``(size,)`` right-hand side.
    """
    factor = as_float(factor)
    x = np.array(as_float(b))  # copy: substituted in place
    if factor.ndim != 2 or x.shape != factor.shape[-1:]:
        raise ValueError(
            f"need a (bandwidth+1, size) factor and a (size,) right-hand "
            f"side, got {factor.shape} and {x.shape}")
    bandwidth = factor.shape[0] - 1
    size = factor.shape[1]
    # Forward substitution: L y = b.  Row j of L holds factor[i, j - i].
    rows, cols = _forward_index(bandwidth, size)
    forward = factor[rows, cols]
    ops = 0.0
    for j in range(size):
        reach = min(bandwidth, j)
        if reach > 0:
            x[j] -= float(forward[j, :reach] @ x[j - reach:j][::-1])
        x[j] /= factor[0, j]
        ops += 2 * reach + 1
    # Backward substitution: L^T x = y.  Column j of L is factor[:, j].
    for j in range(size - 1, -1, -1):
        reach = min(bandwidth, size - 1 - j)
        if reach > 0:
            x[j] -= float(factor[1:reach + 1, j] @ x[j + 1:j + reach + 1])
        x[j] /= factor[0, j]
        ops += 2 * reach + 1
    return x, ops


@functools.lru_cache(maxsize=64)
def _forward_index(bandwidth: int, size: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` gathering every forward-sweep coefficient.

    ``factor[rows, cols][j, k] == L[j, j-k-1]`` for
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


def _blocks(array: np.ndarray, core: int) -> list[np.ndarray]:
    """``array`` split along axis ``-core`` into a list of views.

    Entry ``k`` is ``array[..., k, :]`` (``core - 1`` trailing axes),
    with the same shape and strides.  One transpose and one ``list``
    build every view in C, so a sweep step indexes a list instead of
    building views.
    """
    axis = array.ndim - core
    return list(array.transpose(axis, *range(axis),
                                *range(axis + 1, array.ndim)))


@kernel(stacked=True, dtype_preserving=True)
def block_cholesky_solve(diag_inv: np.ndarray, forward: np.ndarray,
                         backward: np.ndarray, b: np.ndarray
                         ) -> tuple[np.ndarray, float]:
    """Solve ``A x = b`` given a block-bidiagonal Cholesky factor of ``A``.

    ``L`` has ``m`` diagonal blocks ``L_k`` and ``m - 1`` blocks
    ``S_k = L[k, k-1]`` below them, each ``p x p``.  The couplings come
    folded into their diagonal blocks: ``diag_inv`` is
    ``(..., m, p, p)`` holding ``L_k^{-1}``, ``forward`` is
    ``(..., m-1, p, p)`` with ``forward[..., k-1] == L_k^{-1} S_k``,
    ``backward`` is ``(..., m-1, p, p)`` with
    ``backward[..., k] == L_k^{-T} S_{k+1}^T``, and ``b`` is
    ``(..., m, p)``; the batch axes of all four broadcast, so one
    shared factor solves a stacked wave of right-hand sides.  Both
    sweeps apply every ``L_k^{-1}`` (or ``L_k^{-T}``) in one product,
    then take one coupling product per step::

        y = L^{-1} b,   y_k -= forward[k-1] y_{k-1}     k = 1 .. m-1
        x = L^{-T} y,   x_k -= backward[k] x_{k+1}      k = m-2 .. 0

    Every block product is ``np.matvec`` (``np.vecmat`` for the
    transposed diagonal product), which issues one BLAS gemv per
    slice, so a stacked call rounds exactly like the slice loop.
    Never gemm: ``@`` over a stacked right-hand side runs one gemm,
    which rounds differently and would make a stacked call differ from
    the slice loop in the last bit.
    """
    diag_inv, forward, backward, b = (
        as_float(diag_inv), as_float(forward), as_float(backward),
        as_float(b))
    if b.ndim < 2:
        raise ValueError(
            f"b must be (..., m, p): m blocks of p unknowns, got shape "
            f"{b.shape}")
    blocks, width = b.shape[-2:]
    couplings = max(blocks - 1, 0)
    if diag_inv.shape[-3:] != (blocks, width, width) or \
            forward.shape[-3:] != (couplings, width, width) or \
            backward.shape[-3:] != (couplings, width, width):
        raise ValueError(
            f"b of shape (..., {blocks}, {width}) needs diag_inv "
            f"(..., {blocks}, {width}, {width}) and forward and backward "
            f"(..., {couplings}, {width}, {width}), got {diag_inv.shape}, "
            f"{forward.shape} and {backward.shape}")
    batch_shape = b.shape[:-2]
    if not (diag_inv.shape[:-3] == forward.shape[:-3]
            == backward.shape[:-3] == batch_shape):
        batch_shape = np.broadcast_shapes(
            diag_inv.shape[:-3], forward.shape[:-3], backward.shape[:-3],
            batch_shape)
    dtype = np.result_type(diag_inv, forward, backward, b)
    # Allocated over the full batch: forward and backward may carry
    # batch axes that diag_inv and b lack.
    y = np.empty(batch_shape + (blocks, width), dtype=dtype)
    y[...] = np.matvec(diag_inv, b)
    y_blocks, forward_blocks = _blocks(y, 2), _blocks(forward, 3)
    for k in range(1, blocks):
        y_blocks[k] -= np.matvec(forward_blocks[k - 1], y_blocks[k - 1])
    x = np.empty_like(y)
    x[...] = np.vecmat(y, diag_inv)
    x_blocks, backward_blocks = _blocks(x, 2), _blocks(backward, 3)
    for k in range(blocks - 2, -1, -1):
        x_blocks[k] -= np.matvec(backward_blocks[k], x_blocks[k + 1])
    # Per slice and sweep: m diagonal-block products and m - 1
    # coupling products with their subtractions, 2 p^2 per product.
    ops = 2.0 * (blocks * 2 * width * width
                 + couplings * (2 * width * width + width))
    return x, ops * _slice_count(batch_shape)

