"""From-scratch numerical linear algebra substrate.

Replaces the LAPACK routines the paper's benchmarks call (DPBSV, the
symmetric eigensolver drivers) with pure numpy implementations:

* :mod:`repro.linalg.banded` — block-tridiagonal Cholesky factor and
  solve, priced as DPBSV's band factor and solve;
* :mod:`repro.linalg.householder` — symmetric tridiagonalization;
* :mod:`repro.linalg.tridiag_qr` — implicit-shift QL/QR tridiagonal
  eigensolver with eigenvector accumulation;
* :mod:`repro.linalg.bisection` — Sturm-count bisection for selected
  eigenvalues + inverse iteration for their eigenvectors;
* :mod:`repro.linalg.svd` — SVD via the symmetric embedding
  H = [[0, A^T], [A, 0]] (Section 6.1.4) with full-spectrum and
  top-k algorithmic choices;
* :mod:`repro.linalg.cg` — conjugate gradients, plain and
  preconditioned;
* :mod:`repro.linalg.precond` — Jacobi and polynomial (Neumann-series)
  preconditioners (Section 6.1.6);
* :mod:`repro.linalg.poisson_ops` — discrete Poisson operators.

Every routine reports the abstract operation count it performed so
transforms can charge the cost model.
"""

from repro.linalg.banded import (
    block_cholesky_factor,
    block_cholesky_solve,
    dpbsv_ops,
)
from repro.linalg.householder import tridiagonalize_symmetric
from repro.linalg.tridiag_qr import tridiagonal_eigen_qr
from repro.linalg.bisection import (
    sturm_count,
    bisect_eigenvalues,
    inverse_iteration,
)
from repro.linalg.svd import (
    singular_triplets_full,
    singular_triplets_topk,
    rank_k_reconstruction,
)
from repro.linalg.cg import conjugate_gradient
from repro.linalg.precond import jacobi_preconditioner, polynomial_preconditioner
from repro.linalg.poisson_ops import (
    apply_laplacian_1d,
    laplacian_1d_diagonal,
)

__all__ = [
    "block_cholesky_factor",
    "block_cholesky_solve",
    "dpbsv_ops",
    "tridiagonalize_symmetric",
    "tridiagonal_eigen_qr",
    "sturm_count",
    "bisect_eigenvalues",
    "inverse_iteration",
    "singular_triplets_full",
    "singular_triplets_topk",
    "rank_k_reconstruction",
    "conjugate_gradient",
    "jacobi_preconditioner",
    "polynomial_preconditioner",
    "apply_laplacian_1d",
    "laplacian_1d_diagonal",
]
