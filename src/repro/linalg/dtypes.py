"""Shared dtype-preservation helpers for the linalg substrate.

Every ``repro.linalg`` entry point follows the same contract as
``repro.multigrid``: input floating dtypes are preserved end to end
(float32 stays float32); non-floating inputs are promoted to float64.
These helpers centralise the two patterns the contract needs:

* :func:`as_float` — the coercion that replaces the historical
  ``np.asarray(..., dtype=float)`` calls without silently widening
  float32.
* :func:`eps_tolerance` / :func:`safeguard_tiny` — float32-safe
  tolerance handling.  Hard-coded float64-era constants (``1e-15``
  splits, ``1e-300`` divide guards) underflow or over-resolve in
  float32; scaling them by the working dtype's machine epsilon (or
  ``finfo.tiny``) keeps the algorithms convergent.  Both are exact
  no-ops for float64 inputs — the legacy constants already dominate —
  so the float64 paths stay bit-identical to the seed kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_float", "eps_tolerance", "safeguard_tiny"]


def as_float(array) -> np.ndarray:
    """Coerce to a floating ndarray, preserving float32/float64.

    Floating inputs keep their dtype; everything else (ints, bools,
    lists) is promoted to float64 — the dtype-preservation contract of
    ``repro.multigrid.relax``.
    """
    array = np.asarray(array)
    if array.dtype.kind == "f":
        return array
    return array.astype(np.float64)


def eps_tolerance(legacy: float, dtype: np.dtype, scale: float = 4.0
                  ) -> float:
    """A legacy float64 tolerance, widened for narrower dtypes.

    Returns ``max(legacy, scale * eps(dtype))``: for float64 the legacy
    constant dominates (bit-identical behaviour); for float32 the
    eps-scaled term takes over so convergence tests do not demand more
    resolution than the dtype has.
    """
    return max(float(legacy), scale * float(np.finfo(dtype).eps))


def safeguard_tiny(dtype: np.dtype) -> float:
    """Divide-by-zero guard magnitude for ``dtype``.

    The seed kernels guard with ``1e-300``, which underflows to zero in
    float32 arithmetic; use the dtype's smallest normal instead.  For
    float64 the legacy ``1e-300`` is returned unchanged.
    """
    if np.dtype(dtype) == np.float64:
        return 1e-300
    return float(np.finfo(dtype).tiny)
