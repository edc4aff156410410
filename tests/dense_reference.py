"""A dense reference for the block Cholesky kernels' tests.

The direct solvers are checked against ``np.linalg.solve`` on the dense
matrix, polished by a few steps of iterative refinement whose residual
is accumulated in ``np.longdouble``, so the reference is accurate to
well below the float64 rounding of the kernels under test.
"""

from __future__ import annotations

import numpy as np

#: Distance allowed from the dense reference, in units of the working
#: dtype's epsilon times the reference's largest entry.
ULP_BOUND = 16


def dense_from_blocks(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix of ``(m, p, p)`` diagonal and
    ``(m-1, p, p)`` sub-diagonal blocks, in float64."""
    blocks, width = diag.shape[-3:-1]
    dense = np.zeros((blocks * width, blocks * width))
    for k in range(blocks):
        rows = slice(k * width, (k + 1) * width)
        dense[rows, rows] = diag[k]
        if k:
            above = slice((k - 1) * width, k * width)
            dense[rows, above] = sub[k - 1]
            dense[above, rows] = np.swapaxes(sub[k - 1], -1, -2)
    return dense


def refined_solve(matrix: np.ndarray, b: np.ndarray,
                  steps: int = 3) -> np.ndarray:
    """``matrix^{-1} b`` as longdouble, for ``b`` of shape ``(N,)`` or
    ``(N, k)``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    wide = matrix.astype(np.longdouble)
    rhs = np.asarray(b).astype(np.longdouble)
    x = np.linalg.solve(matrix, rhs.astype(np.float64)).astype(np.longdouble)
    for _ in range(steps):
        residual = rhs - wide @ x
        x += np.linalg.solve(matrix, residual.astype(np.float64))
    return x


def assert_within_ulp_bound(x: np.ndarray, reference: np.ndarray,
                            dtype) -> None:
    """``x`` within :data:`ULP_BOUND` ulp of ``dtype`` of ``reference``,
    scaled by the reference's largest entry."""
    reference = np.asarray(reference, dtype=np.longdouble)
    scale = np.abs(reference).max()
    error = np.abs(np.asarray(x, dtype=np.longdouble) - reference).max()
    assert error <= ULP_BOUND * np.finfo(dtype).eps * scale, \
        f"{error / (np.finfo(dtype).eps * scale):.1f} ulp"
