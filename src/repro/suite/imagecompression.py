"""The Image Compression benchmark (Section 6.1.4).

Rank-k approximation of an n x n uniform(0,1) matrix through the SVD of
the symmetric embedding H = [0 A^T; A 0].  The number of singular
values ``k`` is the accuracy variable; the algorithmic choice is
between the full-spectrum hybrid path (Householder + QR iteration) and
the bisection path that computes only k eigenpairs.

Accuracy metric: "the ratio between the RMS error of the initial guess
(the zero matrix) to the RMS error of the output compared with the
input matrix A, converted to log-scale" — i.e.
log10(||A||_F / ||A - A_k||_F).
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.dsl import accuracy_metric, rule, transform
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable
from repro.linalg.svd import (
    rank_k_reconstruction,
    singular_triplets_full,
    singular_triplets_topk,
)
from repro.suite.registry import BenchmarkSpec

__all__ = ["build", "generate", "SPEC", "ACCURACY_BINS", "MAX_RANK"]

ACCURACY_BINS = (0.3, 0.6, 0.8, 1.0, 1.5, 2.0)
MAX_RANK = 512
MAX_ORDERS = 16.0


def _metric(outputs, inputs) -> float:
    matrix = np.asarray(inputs["matrix"], dtype=float)
    error = float(np.linalg.norm(matrix - outputs["approx"]))
    initial = float(np.linalg.norm(matrix))  # zero-matrix initial guess
    if error == 0.0:
        return MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return min(max(math.log10(initial / error), -MAX_ORDERS), MAX_ORDERS)


def _clamped_k(ctx, matrix: np.ndarray) -> int:
    return max(1, min(int(ctx.param("k")), matrix.shape[1]))


def build() -> tuple[Transform, tuple[Transform, ...]]:
    @transform(inputs=("matrix",), outputs=("approx",),
               accuracy_bins=ACCURACY_BINS)
    class imagecompression:
        k = accuracy_variable(lo=1, hi=MAX_RANK, default=1,
                              direction=+1)

        metric = accuracy_metric(_metric, name="log_rms_ratio")

        @rule
        def hybrid_qr(ctx, matrix):
            k = _clamped_k(ctx, matrix)
            sigma, left, right, ops = singular_triplets_full(matrix, k)
            approx, reconstruction_ops = rank_k_reconstruction(
                sigma, left, right)
            ctx.add_cost(ops + reconstruction_ops)
            ctx.record("svd", algorithm="hybrid_qr", k=k)
            return approx

        @rule
        def bisection_topk(ctx, matrix):
            k = _clamped_k(ctx, matrix)
            sigma, left, right, ops = singular_triplets_topk(matrix, k,
                                                             ctx.rng)
            approx, reconstruction_ops = rank_k_reconstruction(
                sigma, left, right)
            ctx.add_cost(ops + reconstruction_ops)
            ctx.record("svd", algorithm="bisection_topk", k=k)
            return approx

    return imagecompression, ()


def generate(n: int, rng: np.random.Generator):
    return {"matrix": rng.uniform(0.0, 1.0, size=(n, n))}


SPEC = BenchmarkSpec(
    name="imagecompression",
    build=build,
    generate=generate,
    training_sizes=(8.0, 16.0, 32.0, 64.0),
    cost_limit=None,
    description="rank-k SVD approximation; QR vs bisection eigensolvers",
)
