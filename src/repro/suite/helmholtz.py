"""The 3-D variable-coefficient Helmholtz benchmark (Section 6.1.3).

The most recursion-heavy benchmark: every coarsening step shrinks the
data eightfold and must also average the variable coefficient fields
``a`` and ``b`` down a level, so the cost/benefit of recursing versus
iterating versus solving directly shifts with size — the trade-off the
tuned cycle shapes of Figure 8 visualise.  Rules record ``mg`` trace
events that :mod:`repro.multigrid.cycles` turns into those shapes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ExecutionError
from repro.lang.dsl import accuracy_metric, call, rule, transform
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable, cutoff, for_enough
from repro.linalg.banded import (block_cholesky_factor, block_cholesky_solve,
                                 dpbsv_ops)
from repro.multigrid.grids import (
    coarse_size,
    is_grid_size,
    prolong,
    restrict_full_weighting,
)
from repro.multigrid.helmholtz3d import (
    apply_helmholtz_3d,
    face_coefficients,
    helmholtz_blocks,
    manufactured_helmholtz_problem,
)
from repro.multigrid.relax import sor_helmholtz_3d
from repro.suite.registry import BenchmarkSpec
from repro.suite.poisson import rms

__all__ = ["build", "generate", "SPEC", "ACCURACY_BINS",
           "DIRECT_MAX_SIZE"]

ACCURACY_BINS = (1.0, 3.0, 5.0, 7.0, 9.0)

#: The 3-D direct solve is O(n^7); cap it where it stays tractable.
DIRECT_MAX_SIZE = 7

MAX_ORDERS = 16.0

ALPHA = 1.0
BETA = 1.0


def _metric(outputs, inputs) -> float:
    exact = inputs["phi_exact"]
    error = rms(outputs["phi"] - exact)
    initial = rms(exact)
    if error == 0.0:
        return MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return min(max(math.log10(initial / error), -MAX_ORDERS), MAX_ORDERS)


def _grid_spacing(n: int) -> float:
    return 1.0 / (n + 1)


def _relax(ctx, phi, f, a, faces, n, iterations, *, action="relax"):
    if iterations <= 0:
        return phi
    omega = float(ctx.param("omega"))
    phi, ops = sor_helmholtz_3d(phi, f, a, faces, _grid_spacing(n), omega,
                                iterations, alpha=ALPHA, beta=BETA)
    ctx.add_cost(ops)
    ctx.record("mg", action=action, n=n, count=iterations)
    return phi


def _coarsen_fields(ctx, a, b):
    coarse_a, ops_a = restrict_full_weighting(a)
    coarse_b, ops_b = restrict_full_weighting(b)
    # The coefficient averaging is genuine per-level work (the paper
    # calls out this recursion overhead explicitly).
    ctx.add_cost(ops_a + ops_b)
    return coarse_a, coarse_b


def _vcycle_pass(ctx, phi, f, a, b, faces, n):
    phi = _relax(ctx, phi, f, a, faces, n, int(ctx.param("pre_iters")))
    if n >= 3 and is_grid_size(n):
        nc = coarse_size(n)
        operator_phi, ops = apply_helmholtz_3d(phi, a, b, _grid_spacing(n),
                                               alpha=ALPHA, beta=BETA)
        ctx.add_cost(ops)
        residual = f - operator_phi
        coarse_f, ops = restrict_full_weighting(residual)
        ctx.add_cost(ops)
        coarse_a, coarse_b = _coarsen_fields(ctx, a, b)
        ctx.record("mg", action="descend", n=nc)
        correction = ctx.call(
            "coarse", {"f": coarse_f, "a": coarse_a, "b_coef": coarse_b},
            n=nc)["phi"]
        ctx.record("mg", action="ascend", n=n)
        fine_correction, ops = prolong(correction)
        ctx.add_cost(ops)
        phi = phi + fine_correction
        ctx.add_cost(float(n ** 3))
    phi = _relax(ctx, phi, f, a, faces, n, int(ctx.param("post_iters")))
    return phi


def build() -> tuple[Transform, tuple[Transform, ...]]:
    @transform(inputs=("f", "a", "b_coef"), outputs=("phi",),
               accuracy_bins=ACCURACY_BINS)
    class helmholtz:
        vcycles = for_enough(max_iters=6, default=2)
        sor_iters = for_enough(max_iters=800, default=40)
        pre_iters = accuracy_variable(lo=0, hi=12, default=2,
                                      direction=+1)
        post_iters = accuracy_variable(lo=0, hi=12, default=2,
                                       direction=+1)
        omega = cutoff(lo=1.0, hi=1.9, default=1.4, integer=False,
                       affects_accuracy=True)
        coarse = call("helmholtz")
        estimate = call("helmholtz")

        metric = accuracy_metric(_metric, name="rms_improvement")

        @rule
        def multigrid(ctx, f, a, b_coef):
            n = f.shape[0]
            faces = face_coefficients(b_coef)
            phi = np.zeros_like(f)
            for _ in ctx.for_enough("vcycles"):
                phi = _vcycle_pass(ctx, phi, f, a, b_coef, faces, n)
            return phi

        @rule
        def full_multigrid(ctx, f, a, b_coef):
            n = f.shape[0]
            faces = face_coefficients(b_coef)
            if n >= 3 and is_grid_size(n):
                nc = coarse_size(n)
                coarse_f, ops = restrict_full_weighting(f)
                ctx.add_cost(ops)
                coarse_a, coarse_b = _coarsen_fields(ctx, a, b_coef)
                ctx.record("mg", action="estimate", n=nc)
                estimate = ctx.call(
                    "estimate",
                    {"f": coarse_f, "a": coarse_a, "b_coef": coarse_b},
                    n=nc)["phi"]
                ctx.record("mg", action="ascend", n=n)
                phi, ops = prolong(estimate)
                ctx.add_cost(ops)
            else:
                phi = np.zeros_like(f)
            for _ in ctx.for_enough("vcycles"):
                phi = _vcycle_pass(ctx, phi, f, a, b_coef, faces, n)
            return phi

        @rule
        def direct(ctx, f, a, b_coef):
            n = f.shape[0]
            if n > DIRECT_MAX_SIZE:
                raise ExecutionError(
                    f"direct solver limited to n <= {DIRECT_MAX_SIZE}, "
                    f"got {n}")
            # Factored and solved plane by plane, but charged DPBSV's
            # band factorization and band solve (bandwidth n^2 over
            # n^3 unknowns), as DESIGN.md's substitution 1 describes.
            diag, sub = helmholtz_blocks(a, b_coef, _grid_spacing(n),
                                         alpha=ALPHA, beta=BETA)
            blocks, _ = block_cholesky_factor(diag, sub)
            solution, _ = block_cholesky_solve(*blocks,
                                               f.reshape(n, n * n))
            factor_ops, solve_ops = dpbsv_ops(n * n, n ** 3)
            ctx.add_cost(factor_ops + solve_ops)
            ctx.record("mg", action="direct", n=n)
            return solution.reshape(f.shape)

        @rule
        def iterative(ctx, f, a, b_coef):
            n = f.shape[0]
            faces = face_coefficients(b_coef)
            phi = np.zeros_like(f)
            iterations = int(ctx.param("sor_iters"))
            phi = _relax(ctx, phi, f, a, faces, n, iterations,
                         action="iterative")
            return phi

    return helmholtz, ()


def generate(n: int, rng: np.random.Generator):
    if not is_grid_size(n):
        raise ValueError(f"helmholtz sizes must be 2^k - 1, got {n}")
    problem = manufactured_helmholtz_problem(n, rng, alpha=ALPHA, beta=BETA)
    return {"f": problem["f"], "a": problem["a"],
            "b_coef": problem["b"], "phi_exact": problem["phi_exact"]}


SPEC = BenchmarkSpec(
    name="helmholtz",
    build=build,
    generate=generate,
    training_sizes=(3.0, 7.0, 15.0, 31.0),
    cost_limit=2e9,
    description="3-D variable-coefficient Helmholtz multigrid",
)
