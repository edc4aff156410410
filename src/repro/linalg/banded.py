"""Block-tridiagonal Cholesky factorization and solves, priced as DPBSV.

Stands in for LAPACK's DPBSV, which the paper's Poisson benchmark uses
as its direct solver choice ("one direct (band Cholesky factorization
through LAPACK's DPBSV routine)", Section 6.1.5).

Both direct solvers in the suite factor a matrix that is block
tridiagonal by grid line or grid plane: the 2-D Poisson matrix on an
n x n grid has n blocks of n x n, the 3-D Helmholtz operator n blocks
of n^2 x n^2.  Their Cholesky factor ``L`` is block-bidiagonal, so it
is factored and substituted block by block rather than column by
column through band storage.

* :func:`block_cholesky_factor` factors the diagonal and
  sub-diagonal blocks, and returns the factor folded into the form the
  solve takes.  It accepts stacked blocks; each slice is factored by
  the same per-slice LAPACK and BLAS calls as an unstacked call.
* :func:`block_cholesky_solve` substitutes through that folded factor
  in 2m block steps, and accepts stacked right-hand sides and factors.
  Each step takes one block product: one BLAS gemv per slice, never
  gemm, so a stacked call rounds exactly like the slice loop.
* :func:`dpbsv_ops` is the price both rules charge: the operation
  counts of one band Cholesky factorization and one band solve.  A
  band of bandwidth ``w`` over ``N`` unknowns costs ~ N * w^2 to
  factor and ~ 4 * N * w to solve; for the 2-D Poisson matrix w = n,
  giving the O(N * n^2) = O(n^4) direct-solve scaling that makes the
  direct choice lose to multigrid at large sizes — the crossover the
  autotuner discovers.

Input floating dtypes are preserved end to end (float32 blocks yield a
float32 factor and solution); non-floating inputs are promoted to
float64.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = ["block_cholesky_factor", "block_cholesky_solve", "dpbsv_ops"]


def _slice_count(batch_shape: tuple[int, ...]) -> float:
    return float(np.prod(batch_shape, dtype=np.int64)) if batch_shape \
        else 1.0


# Takes no arrays, so it holds both pledges trivially.
@kernel(stacked=True, dtype_preserving=True)
def dpbsv_ops(bandwidth: int, size: int) -> tuple[float, float]:
    """``(factor_ops, solve_ops)`` of a band Cholesky factor and solve.

    The counts of the column-by-column band kernels DPBSV runs, in
    closed form.  Column ``j`` of the factor reaches
    ``r_j = min(bandwidth, size - 1 - j)`` rows below the diagonal and
    costs ``r_j (r_j + 3) / 2 + 1`` (a square root, ``r_j`` divisions
    and the rank-1 update of the trailing band); each of the solve's
    two sweeps costs ``2 r + 1`` per column over the same reaches.
    The reaches are ``0, 1, ..., w - 1`` once each and ``w`` for the
    other ``size - w`` columns, with ``w = min(bandwidth, size - 1)``.
    Integer arithmetic throughout, so the counts are exact.
    """
    reach = max(0, min(bandwidth, size - 1))
    tail = size - reach
    total = reach * (reach - 1) // 2 + tail * reach
    squares = (reach - 1) * reach * (2 * reach - 1) // 6 \
        + tail * reach * reach
    factor_ops = (squares + 3 * total) // 2 + size
    solve_ops = 2 * (2 * total + size)
    return float(factor_ops), float(solve_ops)


@kernel(stacked=True, dtype_preserving=True)
def block_cholesky_factor(diag: np.ndarray, sub: np.ndarray
                          ) -> tuple[tuple[np.ndarray, np.ndarray,
                                           np.ndarray], float]:
    """Block Cholesky factor of an SPD block-tridiagonal matrix.

    ``diag`` is ``(..., m, p, p)`` holding the diagonal blocks ``A_k``
    and ``sub`` is ``(..., m-1, p, p)`` holding the blocks below them,
    ``sub[..., k-1] == A[k, k-1]``; their batch axes broadcast.  The
    factor ``L`` has diagonal blocks ``L_k`` and couplings
    ``S_k = L[k, k-1]``::

        S_k = A[k, k-1] L_{k-1}^{-T},   L_k L_k^T = A_k - S_k S_k^T

    Returns ``((diag_inv, forward, backward), ops)``: the factor folded
    into the form :func:`block_cholesky_solve` takes —
    ``diag_inv[..., k] == L_k^{-1}``,
    ``forward[..., k-1] == L_k^{-1} S_k`` and
    ``backward[..., k] == L_k^{-T} S_{k+1}^T`` — and the operations
    spent.  Raises :class:`numpy.linalg.LinAlgError` if any slice is
    not positive definite.
    """
    diag, sub = as_float(diag), as_float(sub)
    if diag.ndim < 3 or diag.shape[-1] != diag.shape[-2] or \
            diag.shape[-3] < 1:
        raise ValueError(
            f"diag must be (..., m, p, p) with m >= 1, got shape "
            f"{diag.shape}")
    blocks, width = diag.shape[-3:-1]
    if sub.shape[-3:] != (blocks - 1, width, width):
        raise ValueError(
            f"diag of shape (..., {blocks}, {width}, {width}) needs sub "
            f"(..., {blocks - 1}, {width}, {width}), got {sub.shape}")
    batch_shape = np.broadcast_shapes(diag.shape[:-3], sub.shape[:-3])
    dtype = np.result_type(diag, sub)
    diag_inv = np.empty(batch_shape + (blocks, width, width), dtype=dtype)
    coupling = np.empty(batch_shape + (blocks - 1, width, width),
                        dtype=dtype)
    pivot = diag[..., 0, :, :]
    for k in range(blocks):
        if k:
            coupling[..., k - 1, :, :] = sub[..., k - 1, :, :] @ \
                np.swapaxes(diag_inv[..., k - 1, :, :], -1, -2)
            pivot = diag[..., k, :, :] - coupling[..., k - 1, :, :] @ \
                np.swapaxes(coupling[..., k - 1, :, :], -1, -2)
        diag_inv[..., k, :, :] = np.linalg.inv(np.linalg.cholesky(pivot))
    forward = diag_inv[..., 1:, :, :] @ coupling
    backward = (np.swapaxes(diag_inv[..., :-1, :, :], -1, -2)
                @ np.swapaxes(coupling, -1, -2))
    # Per slice: a Cholesky and a triangular inverse per diagonal block
    # (p^3 / 3 each), and per coupling two products for the factor,
    # the subtraction, and the two folds (2 p^3 per product).
    cube = float(width) ** 3
    ops = blocks * 2.0 * cube / 3.0 + \
        (blocks - 1) * (8.0 * cube + width * width)
    return (diag_inv, forward, backward), ops * _slice_count(batch_shape)


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

