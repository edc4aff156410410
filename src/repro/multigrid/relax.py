"""Red-Black SOR relaxation.

"one iterative (Red-Black Successive Over Relaxation)" is the smoothing
and iterative-solve building block of both multigrid benchmarks
(Sections 6.1.3 and 6.1.5).  The red/black colouring updates all nodes
of one parity simultaneously, which vectorises cleanly and matches the
parallel update order the paper's runtime uses.

Both kernels accept *stacked* inputs: any leading axes before the core
grid axes (the last two for Poisson, the last three for Helmholtz) are
batch dimensions, and all slices are swept in single whole-array numpy
calls.  A batched call is elementwise-identical to looping the scalar
kernel over slices, and the returned operation count scales by the
batch size.  Input floating dtypes are preserved end to end (float32
stays float32); non-floating inputs are promoted to float64.

Each colour is updated through *strided slice subsets* (the two
diagonal sub-lattices of a 2-D checkerboard, four of a 3-D one) rather
than boolean-mask gathers: basic slicing yields writable views, so the
sweep runs in place with no index copies.  Same-colour cells are never
stencil neighbours, so the subset order cannot change any value.

Batched 2-D sweeps additionally repack the grid into *compact
red/black storage*: with an odd padded width the flattened parity
equals the checkerboard parity, so each colour lives in one contiguous
``(cells, batch)`` array and the four stencil neighbours become plain
shifted views of the opposite colour.  Every inner-loop operation then
streams contiguous memory (the strided subset views only touch one
cache line in four at stride 2), which is where the batched-vs-looped
throughput win comes from.  The per-element arithmetic and its
evaluation order are identical to the scalar subset path, so compact
results are bit-for-bit equal to looping the scalar kernel.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.contracts import kernel

__all__ = ["sor_poisson_2d", "sor_helmholtz_3d"]


def _color_subsets(ndim: int) -> tuple[tuple[tuple[int, ...], ...],
                                       tuple[tuple[int, ...], ...]]:
    """(red, black) offset tuples: the strided sub-lattices of each
    colour.  A cell at interior index ``i`` with per-axis offsets
    ``a`` (each 0 or 1) is red when ``sum(a)`` is even."""
    red = tuple(offsets for offsets in
                itertools.product((0, 1), repeat=ndim)
                if sum(offsets) % 2 == 0)
    black = tuple(offsets for offsets in
                  itertools.product((0, 1), repeat=ndim)
                  if sum(offsets) % 2 == 1)
    return red, black


_SUBSETS_2D = _color_subsets(2)
_SUBSETS_3D = _color_subsets(3)


def _as_float(array: np.ndarray) -> np.ndarray:
    """View as-is for floating inputs, float64 for everything else."""
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.floating):
        return array.astype(np.float64)
    return array


@kernel(stacked=True, dtype_preserving=True)
def sor_poisson_2d(u: np.ndarray, f: np.ndarray, h: float, omega: float,
                   iterations: int) -> tuple[np.ndarray, float]:
    """Red-Black SOR sweeps for ``-lap(u) = f`` (zero Dirichlet).

    ``u`` and ``f`` are ``(..., n, n)``: leading axes are batch
    dimensions and broadcast against each other.  Returns
    ``(u_new, ops)``; ops = 6 n^2 per sweep per slice.
    """
    u = _as_float(u)
    f = _as_float(f)
    shape = np.broadcast_shapes(u.shape, f.shape)
    dtype = np.result_type(u, f)
    n = shape[-1]
    slices = float(np.prod(shape[:-2], dtype=np.int64)) if shape[:-2] \
        else 1.0
    ops = float(iterations) * 6.0 * n * n * slices
    if shape[:-2] and n % 2 == 1:
        result = _sor_poisson_2d_compact(u, f, shape, dtype, h, omega,
                                         iterations)
    else:
        result = _sor_poisson_2d_subsets(u, f, shape, dtype, h, omega,
                                         iterations)
    return result, ops


def _sor_poisson_2d_subsets(u, f, shape, dtype, h, omega, iterations):
    """Strided-subset sweeps; the scalar path and even-``n`` fallback."""
    n = shape[-1]
    padded = np.zeros(shape[:-2] + (n + 2, n + 2), dtype=dtype)
    padded[..., 1:-1, 1:-1] = u
    h2f = np.broadcast_to((h * h) * f, shape)
    for _ in range(iterations):
        for color in _SUBSETS_2D:
            for a, b in color:
                rows = slice(a + 1, n + 1, 2)
                cols = slice(b + 1, n + 1, 2)
                neighbours = (padded[..., slice(a, n, 2), cols]
                              + padded[..., slice(a + 2, n + 2, 2), cols]
                              + padded[..., rows, slice(b, n, 2)]
                              + padded[..., rows, slice(b + 2, n + 2, 2)])
                gauss_seidel = 0.25 * (h2f[..., a::2, b::2] + neighbours)
                padded[..., rows, cols] = (
                    (1.0 - omega) * padded[..., rows, cols]
                    + omega * gauss_seidel)
    return padded[..., 1:-1, 1:-1].copy()


@functools.lru_cache(maxsize=None)
def _ring_parity_indices(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-parity flat indices of the padded boundary ring (cached).

    ``lru_cache`` rather than a hand-rolled module dict: deterministic
    memoization of a pure function is the one sanctioned form of
    module-level state on a rule-reachable path (the handful of
    distinct level widths keeps an unbounded cache safe).
    """
    cells = width * width
    flat = np.arange(cells)
    ring = ((flat < width) | (flat >= cells - width)
            | (flat % width == 0) | (flat % width == width - 1))
    return np.nonzero(ring[0::2])[0], np.nonzero(ring[1::2])[0]


def _sor_poisson_2d_compact(u, f, shape, dtype, h, omega, iterations):
    """Compact red/black sweeps for batched inputs (odd ``n`` only).

    The grid is padded to width ``W = n + 2`` (odd), moved to
    batch-last layout, and flattened: with odd ``W`` the flat-index
    parity equals the checkerboard parity, so ``flat[0::2]`` is every
    red cell and ``flat[1::2]`` every black cell, each packed into one
    contiguous ``(cells, *batch)`` array.  A red cell ``k`` reads black
    neighbours ``k-g, k+g-1, k-1, k`` where ``g = (W+1)//2`` — plain
    shifted contiguous slices, no strided access in the sweep loop.
    Boundary-ring cells inside the update range pick up garbage and are
    re-zeroed before the opposite colour (which is all that reads them)
    runs.  The per-element arithmetic matches the subset path exactly,
    so results are bit-identical.
    """
    n = shape[-1]
    batch = shape[:-2]
    width = n + 2
    cells = width * width
    padded = np.zeros((width, width) + batch, dtype=dtype)
    padded[1:-1, 1:-1] = np.moveaxis(np.broadcast_to(u, shape),
                                     (-2, -1), (0, 1))
    scaled = np.zeros((width, width) + batch, dtype=dtype)
    scaled[1:-1, 1:-1] = np.moveaxis(
        np.broadcast_to((h * h) * f, shape), (-2, -1), (0, 1))
    flat = padded.reshape((cells,) + batch)
    h2f = scaled.reshape((cells,) + batch)
    red = np.ascontiguousarray(flat[0::2])
    black = np.ascontiguousarray(flat[1::2])
    h2f_red = np.ascontiguousarray(h2f[0::2])
    h2f_black = np.ascontiguousarray(h2f[1::2])
    ring_red, ring_black = _ring_parity_indices(width)
    # Update range [g, e): the smallest/largest indices whose stencil
    # shifts stay in bounds; it covers every interior cell plus a few
    # ring cells that are re-zeroed after each half-sweep.
    g = (width + 1) // 2
    e = (cells - width) // 2
    buffer = np.empty((e - g,) + batch, dtype=dtype)
    c1 = 1.0 - omega
    # 0.25 is a power of two, so 0.25 * omega is exact and one multiply
    # by it rounds identically to the subset path's two multiplies.
    relaxed_quarter = 0.25 * omega
    for _ in range(iterations):
        # Red half-sweep: neighbours in order up, down, left, right.
        np.add(black[g - g:e - g], black[g + g - 1:e + g - 1], out=buffer)
        buffer += black[g - 1:e - 1]
        buffer += black[g:e]
        buffer += h2f_red[g:e]
        buffer *= relaxed_quarter
        red[g:e] *= c1
        red[g:e] += buffer
        red[ring_red] = 0.0
        # Black half-sweep.
        np.add(red[g - g + 1:e - g + 1], red[g + g:e + g], out=buffer)
        buffer += red[g:e]
        buffer += red[g + 1:e + 1]
        buffer += h2f_black[g:e]
        buffer *= relaxed_quarter
        black[g:e] *= c1
        black[g:e] += buffer
        black[ring_black] = 0.0
    flat[0::2] = red
    flat[1::2] = black
    return np.moveaxis(padded[1:-1, 1:-1], (0, 1), (-2, -1)).copy()


@kernel(stacked=True, dtype_preserving=True)
def sor_helmholtz_3d(phi: np.ndarray, f: np.ndarray, a: np.ndarray,
                     face_b: tuple[np.ndarray, ...], h: float,
                     omega: float, iterations: int, *,
                     alpha: float = 1.0, beta: float = 1.0
                     ) -> tuple[np.ndarray, float]:
    """Red-Black SOR for the variable-coefficient Helmholtz operator.

    ``face_b`` holds the six face-coupling coefficient arrays as
    produced by :func:`repro.multigrid.helmholtz3d.face_coefficients`
    (order: -x, +x, -y, +y, -z, +z).  ``phi`` and ``f`` are
    ``(..., n, n, n)`` with leading batch axes; ``a`` and the face
    arrays may be shared ``(n, n, n)`` fields or carry matching batch
    axes.  Returns ``(phi_new, ops)``.
    """
    phi = _as_float(phi)
    f = _as_float(f)
    shape = np.broadcast_shapes(phi.shape, f.shape)
    dtype = np.result_type(phi, f)
    n = shape[-1]
    padded = np.zeros(shape[:-3] + (n + 2, n + 2, n + 2), dtype=dtype)
    padded[..., 1:-1, 1:-1, 1:-1] = phi
    scale = beta / (h * h)
    bm_x, bp_x, bm_y, bp_y, bm_z, bp_z = face_b
    denominator = (alpha * a
                   + scale * (bm_x + bp_x + bm_y + bp_y + bm_z + bp_z))
    f = np.broadcast_to(f, shape)
    for _ in range(iterations):
        for color in _SUBSETS_3D:
            for ax, ay, az in color:
                sub = np.index_exp[ax::2, ay::2, az::2]
                px = slice(ax + 1, n + 1, 2)
                py = slice(ay + 1, n + 1, 2)
                pz = slice(az + 1, n + 1, 2)
                coupled = (
                    bm_x[(..., *sub)]
                    * padded[..., slice(ax, n, 2), py, pz]
                    + bp_x[(..., *sub)]
                    * padded[..., slice(ax + 2, n + 2, 2), py, pz]
                    + bm_y[(..., *sub)]
                    * padded[..., px, slice(ay, n, 2), pz]
                    + bp_y[(..., *sub)]
                    * padded[..., px, slice(ay + 2, n + 2, 2), pz]
                    + bm_z[(..., *sub)]
                    * padded[..., px, py, slice(az, n, 2)]
                    + bp_z[(..., *sub)]
                    * padded[..., px, py, slice(az + 2, n + 2, 2)])
                gauss_seidel = (f[(..., *sub)] + scale * coupled) \
                    / denominator[(..., *sub)]
                padded[..., px, py, pz] = (
                    (1.0 - omega) * padded[..., px, py, pz]
                    + omega * gauss_seidel)
    slices = float(np.prod(shape[:-3], dtype=np.int64)) if shape[:-3] \
        else 1.0
    return padded[..., 1:-1, 1:-1, 1:-1].copy(), \
        float(iterations) * 16.0 * n ** 3 * slices
