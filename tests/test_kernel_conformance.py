"""Kernel conformance: every registered kernel keeps its pledges.

The pledges of :mod:`repro.contracts` are checked by running the
kernels, not by reading their source.  For every kernel in
``registered_kernels()``:

* ``dtype_preserving`` — called on float32 inputs, every floating
  array in the result is float32.  A kernel whose result holds no
  floating array (an assignment, a Python-float total) must instead
  answer differently on float32 inputs than on the same values in
  float64, which it cannot do if it widens them first.
* ``stacked`` — the call on a stack of B slices equals the loop over
  the slices, for B in {1, 3, 17} and both float dtypes, with the same
  dtypes; a scalar cost is the (correctly rounded) sum of the slice
  costs, or the same per slice for a per-application price.

Each kernel needs an input recipe below.  A registered kernel without
one fails :func:`test_every_registered_kernel_has_a_recipe`, so the
registry cannot grow past what is checked.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

import repro
from repro.clustering.kernels import (
    assign_clusters,
    lloyd_iterations,
    new_cluster_locations,
    sum_cluster_distance_squared,
)
from repro.clustering.seeding import kmeans_plus_plus, random_centers
from repro.contracts import contract_of, registered_kernels
from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.linalg.cg import conjugate_gradient
from repro.linalg.poisson_ops import (
    apply_laplacian_1d,
    apply_laplacian_2d,
    laplacian_1d_diagonal,
)
from repro.linalg.precond import (
    jacobi_preconditioner,
    polynomial_preconditioner,
)
from repro.multigrid.grids import prolong, restrict_full_weighting
from repro.multigrid.helmholtz3d import (
    apply_helmholtz_3d,
    face_coefficients,
    helmholtz_blocks,
    restrict_coefficients,
)
from repro.multigrid.relax import sor_helmholtz_3d, sor_poisson_2d
from test_props_linalg import random_spd_blocks

# Register every kernel the package declares, wherever it lives.
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith("__main__"):
        importlib.import_module(_module.name)

BATCH_SIZES = (1, 3, 17)
FLOAT_DTYPES = (np.float32, np.float64)
#: Absolute residual tolerance per dtype, well above its round-off
#: floor so that every slice stops early.
CG_TOLERANCE = {np.float32: 1e-3, np.float64: 1e-8}


@dataclass(frozen=True)
class Recipe:
    """How to call one kernel on one slice of generated inputs.

    ``make(rng, dtype)`` draws one slice's arguments with floating
    arrays in ``dtype``; ``run(kernel, *args)`` calls the kernel and
    returns its outputs as a flat tuple (default: the kernel's own
    result, nested tuples flattened).  For a stacked kernel,
    ``batched`` names the argument positions that carry the batch
    axis; the other arguments are shared by every slice.
    """

    make: Callable[[np.random.Generator, Any], tuple]
    run: Callable[..., Any] | None = None
    batched: tuple[int, ...] = ()
    #: Stacked-vs-looped tolerance in units of the dtype's epsilon
    #: (0: bit-identical).
    rtol_eps: float = 0.0
    #: Output positions that must match bit for bit even under
    #: ``rtol_eps``.
    exact: tuple[int, ...] = ()
    #: Scalar outputs are per-slice prices, not per-call totals.
    per_slice_scalars: bool = False

    def call(self, kernel: Callable, args: tuple) -> tuple:
        result = (self.run(kernel, *args) if self.run is not None
                  else kernel(*args))
        return tuple(_flatten(result))


def _flatten(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def normal(rng, dtype, *shape):
    return rng.standard_normal(shape).astype(dtype)


def uniform(rng, dtype, *shape):
    return rng.uniform(0.5, 1.0, shape).astype(dtype)


def clustered_points(rng, dtype, count):
    """Points far from the origin and close together: the distance
    expansion ||p||^2 - 2 p.c + ||c||^2 cancels catastrophically, so
    float32 and float64 arithmetic pick different nearest centroids."""
    return (1000.0 + 0.01 * rng.standard_normal((count, 3))).astype(dtype)


def _solve_args(rng, dtype):
    diag, sub = (block.astype(dtype) for block in random_spd_blocks(rng, 5, 4))
    blocks, _ = block_cholesky_factor(diag, sub)
    return (*blocks, normal(rng, dtype, 5, 4))


def _run_jacobi(kernel, diagonal, r):
    apply, cost = kernel(diagonal)
    return apply(r), cost


def _run_polynomial(kernel, extra, r):
    n = r.shape[-1]
    apply, cost = kernel(lambda v: apply_laplacian_1d(v, 1.0, extra), 3,
                         0.2, 5.0 * n, n)
    return apply(r), cost


def _run_cg(kernel, b, extra):
    """CG to a tolerance each slice reaches at its own step, so the
    stacked call must freeze every slice where its scalar run stops:
    the same residual history and the same charged ops."""
    return kernel(lambda v: apply_laplacian_1d(v, 1.0, extra), b,
                  iterations=25, operator_cost=5.0 * b.shape[-1],
                  tolerance=CG_TOLERANCE[b.dtype.type])


def _run_sor_helmholtz(kernel, phi, f, a, b):
    return kernel(phi, f, a, face_coefficients(b), 0.125, 1.2, 2)


def _seeded(draw):
    """Pass a fresh seeded generator as the last argument."""
    return lambda kernel, *args: draw(kernel, *args,
                                      np.random.default_rng(3))


RECIPES: dict[Callable, Recipe] = {
    # -- stacked -------------------------------------------------------
    assign_clusters: Recipe(
        lambda rng, dt: (clustered_points(rng, dt, 40),
                         clustered_points(rng, dt, 5)),
        batched=(0, 1)),
    block_cholesky_factor: Recipe(
        lambda rng, dt: tuple(block.astype(dt)
                              for block in random_spd_blocks(rng, 5, 4)),
        batched=(0, 1)),
    block_cholesky_solve: Recipe(_solve_args, batched=(3,)),
    apply_laplacian_1d: Recipe(
        lambda rng, dt: (normal(rng, dt, 12), 0.2, uniform(rng, dt, 12)),
        batched=(0,)),
    laplacian_1d_diagonal: Recipe(
        lambda rng, dt: (12, 0.2, uniform(rng, dt, 12)),
        batched=(2,)),
    apply_laplacian_2d: Recipe(
        lambda rng, dt: (normal(rng, dt, 9, 9), 0.1), batched=(0,)),
    jacobi_preconditioner: Recipe(
        lambda rng, dt: (uniform(rng, dt, 12), normal(rng, dt, 12)),
        run=_run_jacobi, batched=(0, 1), per_slice_scalars=True),
    polynomial_preconditioner: Recipe(
        lambda rng, dt: (uniform(rng, dt, 12), normal(rng, dt, 12)),
        run=_run_polynomial, batched=(1,), per_slice_scalars=True),
    # Stacked CG reduces with einsum, the scalar loop with @: the two
    # round differently, but stop at the same step and charge the same.
    conjugate_gradient: Recipe(
        lambda rng, dt: (normal(rng, dt, 31), uniform(rng, dt, 31)),
        run=_run_cg, batched=(0,), rtol_eps=5000.0, exact=(2,)),
    sor_poisson_2d: Recipe(
        lambda rng, dt: (normal(rng, dt, 15, 15), normal(rng, dt, 15, 15),
                         0.1, 1.4, 3),
        batched=(0, 1)),
    sor_helmholtz_3d: Recipe(
        lambda rng, dt: (normal(rng, dt, 7, 7, 7), normal(rng, dt, 7, 7, 7),
                         uniform(rng, dt, 7, 7, 7),
                         uniform(rng, dt, 7, 7, 7)),
        run=_run_sor_helmholtz, batched=(0, 1)),
    restrict_full_weighting: Recipe(
        lambda rng, dt: (normal(rng, dt, 15, 15),),
        run=lambda kernel, fine: kernel(fine, core_ndim=2), batched=(0,)),
    prolong: Recipe(
        lambda rng, dt: (normal(rng, dt, 7, 7),),
        run=lambda kernel, coarse: kernel(coarse, core_ndim=2),
        batched=(0,)),
    # -- dtype-preserving only -----------------------------------------
    new_cluster_locations: Recipe(
        lambda rng, dt: (normal(rng, dt, 40, 3), rng.integers(0, 5, 40), 5)),
    sum_cluster_distance_squared: Recipe(
        lambda rng, dt: (normal(rng, dt, 40, 3), rng.integers(0, 5, 40),
                         normal(rng, dt, 5, 3))),
    lloyd_iterations: Recipe(
        lambda rng, dt: (normal(rng, dt, 40, 3), normal(rng, dt, 5, 3)),
        run=lambda kernel, points, centroids: kernel(
            points, centroids, max_iterations=5)),
    random_centers: Recipe(
        lambda rng, dt: (normal(rng, dt, 40, 3), 5),
        run=_seeded(lambda kernel, points, k, rng: kernel(points, k, rng))),
    kmeans_plus_plus: Recipe(
        lambda rng, dt: (normal(rng, dt, 40, 3), 5),
        run=_seeded(lambda kernel, points, k, rng: kernel(points, k, rng))),
    face_coefficients: Recipe(lambda rng, dt: (uniform(rng, dt, 5, 5, 5),)),
    apply_helmholtz_3d: Recipe(
        lambda rng, dt: (normal(rng, dt, 5, 5, 5), uniform(rng, dt, 5, 5, 5),
                         uniform(rng, dt, 5, 5, 5), 0.125)),
    helmholtz_blocks: Recipe(
        lambda rng, dt: (uniform(rng, dt, 3, 3, 3), uniform(rng, dt, 3, 3, 3),
                         0.25)),
    restrict_coefficients: Recipe(
        lambda rng, dt: (uniform(rng, dt, 7, 7, 7),)),
}


def _library_kernels() -> list[Callable]:
    return sorted((fn for fn in registered_kernels()
                   if fn.__module__.startswith("repro.")),
                  key=lambda fn: (fn.__module__, fn.__qualname__))


def _kernel_id(fn: Callable) -> str:
    return fn.__qualname__


KERNELS = _library_kernels()
STACKED = [fn for fn in KERNELS if contract_of(fn).stacked]
DTYPE_PRESERVING = [fn for fn in KERNELS if contract_of(fn).dtype_preserving]


def _floating(outputs) -> list:
    return [value for value in outputs
            if isinstance(value, (np.ndarray, np.generic))
            and np.issubdtype(value.dtype, np.floating)]


def _upcast(args: tuple) -> tuple:
    return tuple(arg.astype(np.float64)
                 if isinstance(arg, np.ndarray)
                 and np.issubdtype(arg.dtype, np.floating) else arg
                 for arg in args)


def test_every_registered_kernel_has_a_recipe():
    assert KERNELS, "no kernel registered"
    missing = [_kernel_id(fn) for fn in KERNELS if fn not in RECIPES]
    assert not missing, f"registered kernels without a recipe: {missing}"
    stale = [_kernel_id(fn) for fn in RECIPES if contract_of(fn) is None]
    assert not stale, f"recipes for unregistered functions: {stale}"


@pytest.mark.parametrize("kernel", DTYPE_PRESERVING, ids=_kernel_id)
def test_float32_stays_float32(kernel):
    recipe = RECIPES[kernel]
    args = recipe.make(np.random.default_rng(0), np.float32)
    outputs = recipe.call(kernel, args)
    floating = _floating(outputs)
    assert [value.dtype for value in floating] == \
        [np.dtype(np.float32)] * len(floating)
    if not floating:
        # Nothing floating to inspect: the float32 run must differ
        # from the same values run in float64.
        wide = recipe.call(kernel, _upcast(args))
        assert not all(map(np.array_equal, outputs, wide)), \
            f"{_kernel_id(kernel)} answers alike in float32 and float64"


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("kernel", STACKED, ids=_kernel_id)
def test_stacked_call_equals_slice_loop(kernel, batch, dtype):
    recipe = RECIPES[kernel]
    rng = np.random.default_rng(batch)
    slices = [recipe.make(rng, dtype) for _ in range(batch)]
    shared = slices[0]
    stacked_args = tuple(
        np.stack([args[i] for args in slices]) if i in recipe.batched
        else shared[i] for i in range(len(shared)))
    stacked = recipe.call(kernel, stacked_args)
    looped = [recipe.call(kernel, tuple(
        args[i] if i in recipe.batched else shared[i]
        for i in range(len(shared)))) for args in slices]
    rtol = recipe.rtol_eps * np.finfo(dtype).eps
    for position, value in enumerate(stacked):
        per_slice = [outputs[position] for outputs in looped]
        if not isinstance(value, (np.ndarray, list)):
            expected = (per_slice[0] if recipe.per_slice_scalars
                        else math.fsum(per_slice))
            assert value == expected, f"output {position}"
            continue
        # An array with a leading batch axis, or a list of per-slice
        # histories.
        assert len(value) == batch, f"output {position}"
        for row, one in zip(value, per_slice):
            if isinstance(one, np.ndarray):
                assert row.dtype == one.dtype, f"output {position}"
            assert np.shape(row) == np.shape(one), f"output {position}"
            if rtol and position not in recipe.exact:
                np.testing.assert_allclose(row, one, rtol=rtol, atol=rtol)
            else:
                assert np.array_equal(row, one), f"output {position}"
