"""The Preconditioned Iterative Solvers benchmark (Section 6.1.6).

Solves ``A x = b`` with A the 1-D discretized Poisson operator (plus an
optional non-negative diagonal field, zero in the paper-faithful
training data; see DESIGN.md substitutions).  Three algorithmic
choices, as in the paper:

* plain Conjugate Gradients,
* Jacobi-preconditioned CG (P = diag(A)),
* polynomial-preconditioned CG (truncated Neumann series, whose degree
  is an accuracy variable).

Accuracy metric: "the ratio between the RMS error of the initial guess
A x_in to the RMS error of the output A x_out compared to the right
hand side vector b, converted to log-scale" — with ``x_in = 0`` that is
log10(||b|| / ||b - A x_out||).
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.dsl import accuracy_metric, rule, transform
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable, for_enough, precision
from repro.linalg.cg import conjugate_gradient
from repro.linalg.poisson_ops import apply_laplacian_1d, laplacian_1d_diagonal
from repro.linalg.precond import (
    jacobi_preconditioner,
    polynomial_preconditioner,
)
from repro.suite.registry import BenchmarkSpec

__all__ = ["build", "generate", "SPEC", "ACCURACY_BINS"]

ACCURACY_BINS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
MAX_ORDERS = 16.0

#: The operator uses unit spacing: T = tridiag(-1, 2, -1) + diag(extra).
SPACING = 1.0


def _apply_operator(x: np.ndarray, extra: np.ndarray) -> np.ndarray:
    return apply_laplacian_1d(x, SPACING, extra)


def _metric(outputs, inputs) -> float:
    b = np.asarray(inputs["b_rhs"], dtype=float)
    extra = np.asarray(inputs["extra_diag"], dtype=float)
    residual = b - _apply_operator(np.asarray(outputs["x"], dtype=float),
                                   extra)
    final = float(np.linalg.norm(residual))
    initial = float(np.linalg.norm(b))  # residual of x_in = 0
    if final == 0.0:
        return MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return min(max(math.log10(initial / final), -MAX_ORDERS), MAX_ORDERS)


def _run_cg(ctx, b, extra, apply_minv=None, preconditioner_cost=0.0):
    n = len(b)
    iterations = int(ctx.param("iterations"))
    x, norms, ops = conjugate_gradient(
        lambda v: _apply_operator(v, extra), b,
        iterations=iterations,
        apply_minv=apply_minv,
        operator_cost=5.0 * n,
        preconditioner_cost=preconditioner_cost)
    ctx.add_cost(ops)
    ctx.record("cg", iterations=len(norms) - 1,
               residual_drop=norms[0] / max(norms[-1], 1e-300))
    return x


def build(precision_choices: tuple[str, ...] = ("float64", "float32")
          ) -> tuple[Transform, tuple[Transform, ...]]:
    @transform(inputs=("b_rhs", "extra_diag"), outputs=("x",),
               accuracy_bins=ACCURACY_BINS)
    class preconditioner:
        iterations = for_enough(max_iters=3000, default=10)
        degree = accuracy_variable(lo=1, hi=8, default=2, direction=0)
        # Working dtype: float32 halves the cost per CG iteration but
        # bounds the resolvable residual drop (~7 orders) — the
        # precision/accuracy trade-off the tuner explores per bin.
        precision = precision(choices=precision_choices)

        metric = accuracy_metric(_metric, name="log_residual_drop")

        @rule
        def cg(ctx, b_rhs, extra_diag):
            return _run_cg(ctx, b_rhs, extra_diag)

        @rule
        def jacobi_pcg(ctx, b_rhs, extra_diag):
            diagonal = laplacian_1d_diagonal(len(b_rhs), SPACING,
                                             extra_diag)
            apply_minv, cost = jacobi_preconditioner(diagonal)
            return _run_cg(ctx, b_rhs, extra_diag, apply_minv, cost)

        @rule
        def polynomial_pcg(ctx, b_rhs, extra_diag):
            n = len(b_rhs)
            degree = int(ctx.param("degree"))
            # lambda_max(T) < 4 for the unit-spacing Laplacian; the
            # extra diagonal shifts it by at most its maximum.
            lambda_max = 4.0 / (SPACING * SPACING)
            if len(extra_diag):
                lambda_max += float(np.max(extra_diag))
            apply_minv, cost = polynomial_preconditioner(
                lambda v: _apply_operator(v, extra_diag), degree,
                1.0 / lambda_max, 5.0 * n, n)
            return _run_cg(ctx, b_rhs, extra_diag, apply_minv, cost)

    return preconditioner, ()


def generate(n: int, rng: np.random.Generator, *,
             diagonal_perturbation: float = 0.0):
    """Training inputs: random RHS over the 1-D Poisson operator.

    ``diagonal_perturbation > 0`` adds a random non-negative diagonal
    field of that magnitude; the paper-faithful default (0) keeps
    A = T exactly, where Jacobi preconditioning degenerates to a
    scaled identity — one of the results the benchmark demonstrates.
    """
    b = rng.normal(0.0, 1.0, size=n)
    if diagonal_perturbation > 0.0:
        extra = rng.uniform(0.0, diagonal_perturbation, size=n)
    else:
        extra = np.zeros(n)
    return {"b_rhs": b, "extra_diag": extra}


SPEC = BenchmarkSpec(
    name="preconditioner",
    build=build,
    generate=generate,
    training_sizes=(64.0, 256.0, 1024.0, 4096.0),
    cost_limit=None,
    description="CG vs Jacobi-PCG vs polynomial-PCG residual reduction",
)
