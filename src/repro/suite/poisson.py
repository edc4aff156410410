"""The 2-D Poisson benchmark (Section 6.1.5).

Three algorithmic building blocks — direct (Cholesky), iterative
(Red-Black SOR) and recursive (multigrid) — plus a full-multigrid rule
with an estimation phase.  The recursive rules call the transform
itself through auto-accuracy call sites, so the autotuner chooses the
accuracy bin (and hence iteration counts) "at each level of recursion"
exactly as the paper describes.

Accuracy metric: "the ratio between the RMS error of the initial guess
fed into the algorithm and the RMS error of the guess afterwards", in
orders of magnitude (log10); bins 1..9 match Figure 6(e)'s accuracy
levels 10^1..10^9.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import ExecutionError
from repro.lang.dsl import accuracy_metric, call, rule, transform
from repro.lang.transform import Transform
from repro.lang.tunables import (accuracy_variable, cutoff, for_enough,
                                 precision)
from repro.linalg.banded import (block_cholesky_factor, block_cholesky_solve,
                                 dpbsv_ops)
from repro.linalg.poisson_ops import apply_laplacian_2d
from repro.multigrid.grids import (
    coarse_size,
    is_grid_size,
    prolong,
    restrict_full_weighting,
)
from repro.multigrid.relax import sor_poisson_2d
from repro.suite.registry import BenchmarkSpec

__all__ = ["build", "generate", "SPEC", "ACCURACY_BINS",
           "DIRECT_MAX_SIZE", "rms"]

ACCURACY_BINS = (1.0, 3.0, 5.0, 7.0, 9.0)

#: Largest grid the O(n^4) direct solver accepts; beyond it the rule
#: fails and the tuner learns to avoid the choice (a wall-clock
#: concession documented in DESIGN.md — the asymptotic crossover the
#: paper reports already happens well below this size).
DIRECT_MAX_SIZE = 31

#: Metric clamp: float64 cannot resolve more than ~16 orders.  The
#: clamp is ``min(max(value, -MAX_ORDERS), MAX_ORDERS)``, value first,
#: so a NaN value stays NaN as it does through ``np.clip``.
MAX_ORDERS = 16.0


def rms(array: np.ndarray) -> float:
    # np.mean's own sum and division, without its Python-level wrapper.
    array = np.asarray(array, dtype=float)
    square = array * array
    return math.sqrt(float(np.add.reduce(square, axis=None)) / square.size)


def _metric(outputs, inputs) -> float:
    exact = inputs["u_exact"]
    error = rms(outputs["u"] - exact)
    initial = rms(exact)  # RMS error of the zero initial guess
    if error == 0.0:
        return MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return min(max(math.log10(initial / error), -MAX_ORDERS), MAX_ORDERS)


def _grid_spacing(n: int) -> float:
    return 1.0 / (n + 1)


#: Widest block the direct rule's factor groups grid lines into, in
#: unknowns.  Grouping ``g`` lines per block cuts the solve's block
#: steps from ``2n`` to ``2n / g``, each one product, but every block
#: is stored and applied dense, so the factor's size and the solve's
#: flops both grow with ``g``; up to this width the fewer steps win.
DIRECT_BLOCK_UNKNOWNS = 128


def _lines_per_block(n: int) -> int:
    """Grid lines per block of the direct factor: the largest divisor
    ``g`` of ``n`` with ``g * n <= DIRECT_BLOCK_UNKNOWNS``, or 1 when no
    divisor fits (n = 31 is prime; n = 63's smallest divisor, 3, is
    already too wide)."""
    return max((g for g in range(1, n + 1)
                if n % g == 0 and g * n <= DIRECT_BLOCK_UNKNOWNS),
               default=1)


def _laplacian_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 5-point Laplacian's ``(diag, sub)`` blocks, ``g =
    _lines_per_block(n)`` grid lines each, in float64, unfactored.

    Row-major unknowns make the matrix block tridiagonal for any
    grouping of consecutive grid lines.  There are ``n / g`` diagonal
    blocks of ``g n`` unknowns, each the Laplacian of a ``g x n``
    strip (``tridiag(-1, 4, -1) / h^2`` per line, ``-I / h^2`` between
    neighbouring lines), and ``n / g - 1`` couplings below them whose
    only nonzeros are the ``-I / h^2`` joining a strip's first line to
    the previous strip's last.  Built straight from the stencil.
    """
    h = _grid_spacing(n)
    scale = 1.0 / (h * h)
    lines = _lines_per_block(n)
    width = lines * n
    unknown = np.arange(width)
    strip = np.zeros((width, width))
    strip[unknown, unknown] = 4.0 * scale
    along = unknown[:-1][unknown[1:] % n != 0]  # a right neighbour
    strip[along + 1, along] = strip[along, along + 1] = -scale
    across = unknown[:-n]  # a neighbour on the next line
    strip[across + n, across] = strip[across, across + n] = -scale
    below = np.zeros((width, width))
    below[unknown[:n], unknown[width - n:]] = -scale
    return (np.broadcast_to(strip, (n // lines, width, width)),
            np.broadcast_to(below, (n // lines - 1, width, width)))


@functools.lru_cache(maxsize=None)
def _direct_blocks(n: int, dtype: np.dtype
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float,
                              float]:
    """The factored 5-point Laplacian as :func:`block_cholesky_solve`
    takes it.

    The blocks of :func:`_laplacian_blocks` — ``n / g`` of ``g n``
    unknowns, ``g`` grid lines each — factored in float64, with each
    folded block rounded once to the working dtype.  A right-hand side
    ``(..., n, n)`` reshapes to ``(..., n / g, g n)`` as a view, and
    the solution back.  The matrix depends only on ``(n, dtype)``,
    never on the request, so it is factored once per process.
    ``lru_cache`` is the sanctioned memoization idiom (see
    ``multigrid.relax._ring_parity_indices``); the cache stays small
    because the direct rule refuses ``n > DIRECT_MAX_SIZE`` before
    calling it.

    Returns ``(diag_inv, forward, backward, factor_ops, solve_ops)``:
    the read-only blocks (under 1 MB per entry, at n = 31 in float64)
    plus the per-request DPBSV price the direct rule charges — one band
    factorization and one band solve of bandwidth ``n`` over ``n^2``
    unknowns, whatever the grouping.
    """
    folded, _ = block_cholesky_factor(*_laplacian_blocks(n))
    diag_inv, forward, backward = (block.astype(dtype) for block in folded)
    for block in (diag_inv, forward, backward):
        block.setflags(write=False)
    return (diag_inv, forward, backward, *dpbsv_ops(n, n * n))


def _batch_count(f: np.ndarray) -> float:
    """Number of stacked grids in ``f`` (1.0 for a plain (n, n) input).

    The rules accept one leading batch dimension (the transform is
    declared ``batchable=True``); manually charged costs must scale by
    this factor so a stacked run is charged exactly batch-size times
    the scalar run — the invariant the runtime's stacked execution path
    relies on to recover per-request objectives.
    """
    return float(np.prod(f.shape[:-2], dtype=np.int64)) if f.ndim > 2 \
        else 1.0


def _relax(ctx, u, f, n, iterations, *, action="relax"):
    if iterations <= 0:
        return u
    omega = float(ctx.param("omega"))
    u, ops = sor_poisson_2d(u, f, _grid_spacing(n), omega, iterations)
    ctx.add_cost(ops)
    ctx.record("mg", action=action, n=n, count=iterations)
    return u


def _vcycle_pass(ctx, u, f, n):
    """One V-cycle: pre-relax, coarse correction, post-relax."""
    u = _relax(ctx, u, f, n, int(ctx.param("pre_iters")))
    if n >= 3 and is_grid_size(n):
        nc = coarse_size(n)
        residual = f - apply_laplacian_2d(u, _grid_spacing(n))
        ctx.add_cost(5.0 * n * n * _batch_count(f))
        coarse_f, ops = restrict_full_weighting(residual, core_ndim=2)
        ctx.add_cost(ops)
        ctx.record("mg", action="descend", n=nc)
        correction = ctx.call("coarse", {"f": coarse_f}, n=nc)["u"]
        ctx.record("mg", action="ascend", n=n)
        fine_correction, ops = prolong(correction, core_ndim=2)
        ctx.add_cost(ops)
        u = u + fine_correction
        ctx.add_cost(float(n * n) * _batch_count(f))
    u = _relax(ctx, u, f, n, int(ctx.param("post_iters")))
    return u


def build(precision_choices: tuple[str, ...] = ("float64", "float32")
          ) -> tuple[Transform, tuple[Transform, ...]]:
    # batchable=True: every rule below accepts a stacked (B, n, n)
    # right-hand side, produces a (B, n, n) solution, never consults
    # the execution seed, and charges exactly B times the scalar cost —
    # so the runtime may fuse same-bin request waves into one call.
    @transform(inputs=("f",), outputs=("u",), accuracy_bins=ACCURACY_BINS,
               batchable=True)
    class poisson:
        vcycles = for_enough(max_iters=6, default=2)
        sor_iters = for_enough(max_iters=3000, default=60)
        pre_iters = accuracy_variable(lo=0, hi=16, default=2,
                                      direction=+1)
        post_iters = accuracy_variable(lo=0, hi=16, default=2,
                                       direction=+1)
        omega = cutoff(lo=1.0, hi=1.95, default=1.5, integer=False,
                       affects_accuracy=True)
        # Working dtype: every (transform, bin) instance resolves its
        # own entry, so the tuner can smooth low-accuracy recursion
        # levels in float32 under float64 high-accuracy bins.
        precision = precision(choices=precision_choices)
        coarse = call("poisson")
        estimate = call("poisson")

        metric = accuracy_metric(_metric, name="rms_improvement")

        @rule
        def multigrid(ctx, f):
            n = f.shape[-1]
            u = np.zeros_like(f)
            for _ in ctx.for_enough("vcycles"):
                u = _vcycle_pass(ctx, u, f, n)
            return u

        @rule
        def full_multigrid(ctx, f):
            n = f.shape[-1]
            if n >= 3 and is_grid_size(n):
                nc = coarse_size(n)
                coarse_f, ops = restrict_full_weighting(f, core_ndim=2)
                ctx.add_cost(ops)
                ctx.record("mg", action="estimate", n=nc)
                estimate = ctx.call("estimate", {"f": coarse_f},
                                    n=nc)["u"]
                ctx.record("mg", action="ascend", n=n)
                u, ops = prolong(estimate, core_ndim=2)
                ctx.add_cost(ops)
            else:
                u = np.zeros_like(f)
            for _ in ctx.for_enough("vcycles"):
                u = _vcycle_pass(ctx, u, f, n)
            return u

        @rule
        def direct(ctx, f):
            n = f.shape[-1]
            if n > DIRECT_MAX_SIZE:
                raise ExecutionError(
                    f"direct solver limited to n <= {DIRECT_MAX_SIZE}, "
                    f"got {n}")
            # The factor is cached per (n, dtype) and solved block by
            # block, a few grid lines per block, but each request is
            # still charged a fresh DPBSV — band factorization plus
            # band solve — what its own scalar run would cost, and the
            # stacked-execution invariant (DESIGN.md, substitution 1).
            diag_inv, forward, backward, factor_ops, solve_ops = \
                _direct_blocks(n, f.dtype)
            rows = f.reshape(*f.shape[:-2], -1, diag_inv.shape[-1])
            solution, _ = block_cholesky_solve(diag_inv, forward,
                                               backward, rows)
            batch = _batch_count(f)
            ctx.add_cost(factor_ops * batch + solve_ops * batch)
            ctx.record("mg", action="direct", n=n)
            return solution.reshape(f.shape)

        @rule
        def iterative(ctx, f):
            n = f.shape[-1]
            u = np.zeros_like(f)
            iterations = int(ctx.param("sor_iters"))
            u = _relax(ctx, u, f, n, iterations, action="iterative")
            return u

    return poisson, ()


def generate(n: int, rng: np.random.Generator):
    """Manufactured problem: smooth random exact solution, f = T u.

    The paper draws the RHS uniformly and measures RMS error against
    the true solution; generating from a known discrete solution gives
    the same measurement without a reference direct solve per trial
    (see DESIGN.md substitutions).
    """
    if not is_grid_size(n):
        raise ValueError(f"poisson sizes must be 2^k - 1, got {n}")
    h = _grid_spacing(n)
    x = np.arange(1, n + 1) * h
    u_exact = np.zeros((n, n))
    for _ in range(3):
        p, q = rng.integers(1, 4, size=2)
        u_exact += rng.uniform(-1.0, 1.0) * np.outer(
            np.sin(p * np.pi * x), np.sin(q * np.pi * x))
    f = apply_laplacian_2d(u_exact, h)
    return {"f": f, "u_exact": u_exact}


SPEC = BenchmarkSpec(
    name="poisson",
    build=build,
    generate=generate,
    training_sizes=(3.0, 7.0, 15.0, 31.0, 63.0),
    cost_limit=5e8,
    description="2-D Poisson: direct / SOR / multigrid / FMG choices",
)
