"""Grid transfer operators: full-weighting restriction, linear prolongation.

Node-centered convention: a grid of size ``n = 2^k - 1`` per dimension
coarsens to ``(n - 1) / 2``; coarse node ``I`` coincides with fine node
``2I + 1``.  Both operators are built from one-dimensional kernels
applied per axis, which makes them correct in any dimension and keeps
the well-known variational relation  restriction = prolongation^T / 2^d
(property-tested in tests/test_multigrid_grids.py).

Both operators accept stacked inputs: ``core_ndim`` names how many
trailing axes form one grid (2 for the Poisson planes, 3 for the
Helmholtz volumes); any leading axes are batch dimensions transferred
in the same whole-array numpy calls.  ``core_ndim=None`` (the default)
treats every axis as a grid axis — the original scalar behaviour.
Operation counts include the batch axes (they scale by the batch
size), and floating input dtypes are preserved.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import kernel

__all__ = ["is_grid_size", "coarse_size", "restrict_full_weighting",
           "prolong"]


def is_grid_size(n: int) -> bool:
    """True for sizes of the form 2^k - 1 (k >= 1)."""
    return n >= 1 and ((n + 1) & n) == 0


def coarse_size(n: int) -> int:
    """Size of the next-coarser grid."""
    if not is_grid_size(n) or n < 3:
        raise ValueError(f"cannot coarsen grid of size {n}")
    return (n - 1) // 2


def _as_float(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.floating):
        return array.astype(np.float64)
    return array


def _core_axes(ndim: int, core_ndim: int | None) -> range:
    if core_ndim is None:
        core_ndim = ndim
    if not 0 < core_ndim <= ndim:
        raise ValueError(
            f"core_ndim must be in [1, {ndim}] for a {ndim}-D array, "
            f"got {core_ndim}")
    return range(ndim - core_ndim, ndim)


def _axis_slices(ndim: int, axis: int, s: slice) -> tuple:
    return tuple(s if d == axis else slice(None) for d in range(ndim))


def _restrict_axis(array: np.ndarray, axis: int) -> np.ndarray:
    """1-D full weighting (1/4, 1/2, 1/4) + subsample along ``axis``."""
    left = array[_axis_slices(array.ndim, axis, slice(0, -1, 2))]
    center = array[_axis_slices(array.ndim, axis, slice(1, None, 2))]
    right = array[_axis_slices(array.ndim, axis, slice(2, None, 2))]
    return 0.25 * left + 0.5 * center + 0.25 * right


def _prolong_axis(array: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation doubling ``axis`` from nc to 2*nc + 1."""
    nc = array.shape[axis]
    shape = list(array.shape)
    shape[axis] = 2 * nc + 1
    out = np.zeros(shape, dtype=array.dtype)
    ndim = array.ndim
    out[_axis_slices(ndim, axis, slice(1, None, 2))] = array
    # Interior even nodes: average of odd neighbours.
    lower = array[_axis_slices(ndim, axis, slice(0, -1))]
    upper = array[_axis_slices(ndim, axis, slice(1, None))]
    out[_axis_slices(ndim, axis, slice(2, -1, 2))] = 0.5 * (lower + upper)
    # Boundary-adjacent even nodes: the Dirichlet boundary value is 0.
    first = array[_axis_slices(ndim, axis, slice(0, 1))]
    last = array[_axis_slices(ndim, axis, slice(nc - 1, nc))]
    out[_axis_slices(ndim, axis, slice(0, 1))] = 0.5 * first
    out[_axis_slices(ndim, axis, slice(shape[axis] - 1, shape[axis]))] = \
        0.5 * last
    return out


@kernel(stacked=True, dtype_preserving=True)
def restrict_full_weighting(fine: np.ndarray, *,
                            core_ndim: int | None = None
                            ) -> tuple[np.ndarray, float]:
    """Full-weighting restriction over the trailing ``core_ndim`` axes.

    Returns ``(coarse, ops)``; every restricted axis must have size
    2^k - 1 >= 3.  Leading axes (before the core axes) pass through as
    batch dimensions.
    """
    result = _as_float(fine)
    for axis in _core_axes(result.ndim, core_ndim):
        if not is_grid_size(result.shape[axis]) or result.shape[axis] < 3:
            raise ValueError(
                f"axis {axis} has unrestrictable size {result.shape[axis]}")
        result = _restrict_axis(result, axis)
    return result, float(np.asarray(fine).size) * 2.0


@kernel(stacked=True, dtype_preserving=True)
def prolong(coarse: np.ndarray, *, core_ndim: int | None = None
            ) -> tuple[np.ndarray, float]:
    """Linear prolongation over the trailing ``core_ndim`` axes.

    Returns ``(fine, ops)`` with every core axis doubled from nc to
    2nc+1; leading batch axes pass through.
    """
    result = _as_float(coarse)
    for axis in _core_axes(result.ndim, core_ndim):
        result = _prolong_axis(result, axis)
    return result, float(result.size) * 2.0
