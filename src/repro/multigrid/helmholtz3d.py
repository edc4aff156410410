"""The 3-D variable-coefficient Helmholtz operator (Section 6.1.3).

    alpha * (a * phi) - beta * div(b * grad(phi)) = f

with node-centered scalar fields ``a`` and ``b`` drawn from
U(0.5, 1) — "to ensure the system is positive-definite" — and zero
Dirichlet boundaries.  The divergence term is discretized with the
standard 7-point flux form: the coupling through each face uses the
harmonic-free average of ``b`` at the two nodes (arithmetic mean; the
edge of the domain reuses the boundary node's ``b``).
"""

from __future__ import annotations

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = [
    "face_coefficients",
    "apply_helmholtz_3d",
    "helmholtz_blocks",
    "manufactured_helmholtz_problem",
    "restrict_coefficients",
]


@kernel(dtype_preserving=True)
def face_coefficients(b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Six face-coupling arrays (-x, +x, -y, +y, -z, +z) from node b."""
    padded = np.pad(as_float(b), 1, mode="edge")
    core = padded[1:-1, 1:-1, 1:-1]
    return (0.5 * (core + padded[:-2, 1:-1, 1:-1]),
            0.5 * (core + padded[2:, 1:-1, 1:-1]),
            0.5 * (core + padded[1:-1, :-2, 1:-1]),
            0.5 * (core + padded[1:-1, 2:, 1:-1]),
            0.5 * (core + padded[1:-1, 1:-1, :-2]),
            0.5 * (core + padded[1:-1, 1:-1, 2:]))


@kernel(dtype_preserving=True)
def apply_helmholtz_3d(phi: np.ndarray, a: np.ndarray, b: np.ndarray,
                       h: float, *, alpha: float = 1.0, beta: float = 1.0
                       ) -> tuple[np.ndarray, float]:
    """y = A phi for the variable-coefficient operator.

    Returns ``(y, ops)``; ops = 16 n^3.
    """
    phi = as_float(phi)
    n = phi.shape[0]
    faces = face_coefficients(b)
    padded = np.zeros((n + 2, n + 2, n + 2), dtype=phi.dtype)
    padded[1:-1, 1:-1, 1:-1] = phi
    bm_x, bp_x, bm_y, bp_y, bm_z, bp_z = faces
    flux = (bm_x * (phi - padded[:-2, 1:-1, 1:-1])
            + bp_x * (phi - padded[2:, 1:-1, 1:-1])
            + bm_y * (phi - padded[1:-1, :-2, 1:-1])
            + bp_y * (phi - padded[1:-1, 2:, 1:-1])
            + bm_z * (phi - padded[1:-1, 1:-1, :-2])
            + bp_z * (phi - padded[1:-1, 1:-1, 2:]))
    y = alpha * as_float(a) * phi + (beta / (h * h)) * flux
    return y, 16.0 * n ** 3


@kernel(dtype_preserving=True)
def helmholtz_blocks(a: np.ndarray, b: np.ndarray, h: float, *,
                     alpha: float = 1.0, beta: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The operator as blocks, one diagonal block per x-plane.

    Unknowns are ordered x-major, index ``(i, j, k)`` flattening to
    ``i n^2 + j n + k``, so the matrix is block tridiagonal by plane.
    Returns ``(diag, sub)``: ``diag`` is ``(n, n^2, n^2)``, each plane's
    diagonal plus its y and z couplings; ``sub`` is
    ``(n-1, n^2, n^2)``, the diagonal x coupling of plane ``i+1`` to
    plane ``i`` — the form
    :func:`repro.linalg.banded.block_cholesky_factor` takes.  The
    matrix is SPD for positive ``a``/``b`` and positive
    ``alpha``/``beta``.
    """
    a = as_float(a)
    n = a.shape[0]
    plane = n * n
    scale = beta / (h * h)
    bm_x, bp_x, bm_y, bp_y, bm_z, bp_z = face_coefficients(b)
    diagonal = (alpha * a + scale
                * (bm_x + bp_x + bm_y + bp_y + bm_z + bp_z))
    diag = np.zeros((n, plane, plane), dtype=diagonal.dtype)
    points = np.arange(plane)
    diag[:, points, points] = diagonal.reshape(n, plane)
    # Within a plane, offset 1 couples k (z) and offset n couples j (y);
    # the coupling at the last k or j leaves the grid and is dropped.
    for offset, face, inside in ((1, bp_z, points % n < n - 1),
                                 (n, bp_y, points // n < n - 1)):
        rows = points[inside]
        coupling = (-scale * face).reshape(n, plane)[:, inside]
        diag[:, rows + offset, rows] = coupling
        diag[:, rows, rows + offset] = coupling
    sub = np.zeros((n - 1, plane, plane), dtype=diagonal.dtype)
    sub[:, points, points] = (-scale * bp_x[:-1]).reshape(n - 1, plane)
    return diag, sub


@kernel(dtype_preserving=True)
def restrict_coefficients(field: np.ndarray) -> tuple[np.ndarray, float]:
    """Coarsen a coefficient field by full weighting.

    The paper highlights that "there is a lot of state data that needs
    to be transformed (either averaged down or interpolated up)
    between levels of recursion due to the presence of the variable
    coefficient arrays a and b" — this is that averaging, and its cost
    is charged to the recursion like any other work.
    """
    from repro.multigrid.grids import restrict_full_weighting
    return restrict_full_weighting(field)


def manufactured_helmholtz_problem(n: int, rng: np.random.Generator, *,
                                   modes: int = 3, alpha: float = 1.0,
                                   beta: float = 1.0
                                   ) -> dict[str, np.ndarray]:
    """A Helmholtz problem with known exact (discrete) solution.

    Coefficients ``a``, ``b`` ~ U(0.5, 1); the exact solution is a
    random low-mode sine series (smooth, nonzero), and ``f`` is
    computed by applying the discrete operator — so the discrete
    system's solution is exactly ``phi_exact``.  Returns a dict with
    ``f``, ``a``, ``b``, ``phi_exact`` and grid spacing ``h``.
    """
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    phi = np.zeros((n, n, n))
    for _ in range(modes):
        p, q, r = rng.integers(1, 4, size=3)
        coefficient = rng.uniform(-1.0, 1.0)
        phi += coefficient * np.einsum(
            "i,j,k->ijk", np.sin(p * np.pi * x), np.sin(q * np.pi * x),
            np.sin(r * np.pi * x))
    a = rng.uniform(0.5, 1.0, size=(n, n, n))
    b = rng.uniform(0.5, 1.0, size=(n, n, n))
    f, _ = apply_helmholtz_3d(phi, a, b, h, alpha=alpha, beta=beta)
    return {"f": f, "a": a, "b": b, "phi_exact": phi, "h": h}
