"""Multigrid substrate: grid transfers, relaxation, Poisson/Helmholtz.

Node-centered grids with ``n = 2^k - 1`` interior points per dimension
and zero Dirichlet boundaries; full-weighting restriction and
(bi/tri)linear prolongation, both built from a shared per-axis kernel
(so the 2-D Poisson and 3-D Helmholtz benchmarks exercise the same
transfer code).
"""

from repro.multigrid.grids import (
    coarse_size,
    is_grid_size,
    prolong,
    restrict_full_weighting,
)
from repro.multigrid.relax import sor_poisson_2d, sor_helmholtz_3d
from repro.multigrid.helmholtz3d import (
    apply_helmholtz_3d,
    helmholtz_blocks,
    manufactured_helmholtz_problem,
    restrict_coefficients,
)
from repro.multigrid.cycles import CycleShape, extract_cycle_shape, render_cycle

__all__ = [
    "coarse_size",
    "is_grid_size",
    "prolong",
    "restrict_full_weighting",
    "sor_poisson_2d",
    "sor_helmholtz_3d",
    "apply_helmholtz_3d",
    "helmholtz_blocks",
    "manufactured_helmholtz_problem",
    "restrict_coefficients",
    "CycleShape",
    "extract_cycle_shape",
    "render_cycle",
]
