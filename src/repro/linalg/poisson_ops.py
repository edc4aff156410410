"""Discrete Poisson operators.

* 1-D: the tridiagonal ``(-1, 2, -1)/h^2`` operator used by the
  preconditioner benchmark, optionally with an added positive diagonal
  field (keeps the system SPD while making the diagonal non-constant —
  without it Jacobi preconditioning degenerates to a scaled identity;
  see DESIGN.md's substitution notes).
* 2-D: the 5-point Laplacian on an n x n interior grid with Dirichlet
  boundaries, as a stencil application (for SOR/multigrid/CG).  The
  Poisson direct rule builds the same stencil's grid-line blocks for
  :func:`repro.linalg.banded.block_cholesky_factor` itself.

Input floating dtypes are preserved end to end (float32 stays
float32); non-floating inputs are promoted to float64.
:func:`laplacian_1d_diagonal` is built in its extra diagonal's dtype,
so callers get it in the working precision of their data.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = [
    "apply_laplacian_1d",
    "laplacian_1d_diagonal",
    "apply_laplacian_2d",
]


@kernel(stacked=True, dtype_preserving=True)
def apply_laplacian_1d(x: np.ndarray, h: float = 1.0,
                       extra_diagonal: np.ndarray | None = None
                       ) -> np.ndarray:
    """y = T x for the 1-D Dirichlet Laplacian (plus optional diagonal).

    ``x`` is ``(..., n)``; leading axes are batch dimensions applied in
    the same whole-array calls.  ``extra_diagonal`` broadcasts against
    the trailing axis.
    """
    x = as_float(x)
    y = 2.0 * x
    y[..., :-1] -= x[..., 1:]
    y[..., 1:] -= x[..., :-1]
    y /= h * h
    if extra_diagonal is not None:
        y += as_float(extra_diagonal) * x
    return y


@kernel(stacked=True, dtype_preserving=True)
def laplacian_1d_diagonal(n: int, h: float = 1.0,
                          extra_diagonal: np.ndarray | None = None
                          ) -> np.ndarray:
    """diag(T) for the 1-D operator (for Jacobi preconditioning).

    Built in the extra diagonal's floating dtype, or float64 without
    one.
    """
    extra = None if extra_diagonal is None else as_float(extra_diagonal)
    dtype = np.float64 if extra is None else extra.dtype
    diagonal = np.full(n, 2.0 / (h * h), dtype=dtype)
    if extra is not None:
        diagonal = diagonal + extra
    return diagonal


@kernel(stacked=True, dtype_preserving=True)
def apply_laplacian_2d(u: np.ndarray, h: float) -> np.ndarray:
    """y = T u for the 2-D 5-point Dirichlet Laplacian on the interior.

    ``u`` is ``(..., n, n)`` interior values (boundaries are zero);
    leading axes are batch dimensions applied in the same calls.
    """
    u = as_float(u)
    y = 4.0 * u
    y[..., :-1, :] -= u[..., 1:, :]
    y[..., 1:, :] -= u[..., :-1, :]
    y[..., :, :-1] -= u[..., :, 1:]
    y[..., :, 1:] -= u[..., :, :-1]
    return y / (h * h)

