"""Preconditioners for the iterative-solver benchmark (Section 6.1.6).

* :func:`jacobi_preconditioner` — "the preconditioner is chosen to be
  the diagonal of the matrix P = diag(A)";
* :func:`polynomial_preconditioner` — "apply the polynomial
  preconditioner P^-1 = p(A), where p(A) is an approximation of the
  inverse of A by using a few terms of the series expansion of A^-1".

The polynomial used is the truncated Neumann series
``p(A) = omega * sum_{j=0..degree} (I - omega A)^j``, which converges
to A^-1 whenever ``||I - omega A|| < 1`` (omega below 2 / lambda_max
for SPD A).  Applying it costs ``degree`` extra operator products per
CG iteration — the accuracy/time knob the autotuner explores through
the ``degree`` accuracy variable.

Input floating dtypes are preserved end to end (float32 stays
float32); non-floating inputs are promoted to float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.contracts import kernel
from repro.linalg.dtypes import as_float

__all__ = ["jacobi_preconditioner", "polynomial_preconditioner"]

Operator = Callable[[np.ndarray], np.ndarray]


@kernel(stacked=True, dtype_preserving=True)
def jacobi_preconditioner(diagonal: np.ndarray
                          ) -> tuple[Operator, float]:
    """P^-1 r = r / diag(A).  Returns ``(apply, cost_per_application)``."""
    diagonal = as_float(diagonal)
    if np.any(diagonal <= 0.0):
        raise ValueError("Jacobi preconditioner needs a positive diagonal")
    inverse = 1.0 / diagonal

    def apply(r: np.ndarray) -> np.ndarray:
        return r * inverse

    return apply, float(diagonal.shape[-1])


@kernel(stacked=True, dtype_preserving=True)
def polynomial_preconditioner(apply_operator: Operator, degree: int,
                              omega: float, operator_cost: float,
                              length: int) -> tuple[Operator, float]:
    """Truncated-Neumann-series polynomial preconditioner.

    ``z = omega * sum_{j=0}^{degree} t_j`` with ``t_0 = r`` and
    ``t_{j+1} = t_j - omega * A t_j``.  Returns
    ``(apply, cost_per_application)``.
    """
    if degree < 1:
        raise ValueError(f"polynomial degree must be >= 1: {degree}")
    if omega <= 0.0:
        raise ValueError(f"omega must be positive: {omega}")

    def apply(r: np.ndarray) -> np.ndarray:
        term = r
        acc = r.copy()
        for _ in range(degree):
            term = term - omega * apply_operator(term)
            acc += term
        return omega * acc

    cost = degree * (operator_cost + 2.0 * length) + length
    return apply, float(cost)
