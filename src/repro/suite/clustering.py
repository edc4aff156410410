"""The Clustering (k-means) benchmark (Section 6.1.2, Figure 3).

Reproduces the paper's variable-accuracy kmeans transform:

* the accuracy variable ``k`` sizes the Centroids through-data;
* two initialisation rules — per-column random seeding (with
  compiler-synthesized outer control flow) and k-means++
  ("CenterPlus");
* a Lloyd-iteration rule whose stopping condition is tunable between
  the three modes Table 1 reports: iterate once, iterate until at most
  a threshold fraction of assignments change, or iterate to a fixed
  point;
* the ``sqrt(2n / sum D_i^2)`` accuracy metric computed from
  (Assignments, Points) alone.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.datagen import generate_clustered_points
from repro.clustering.kernels import lloyd_iterations
from repro.clustering.metrics import kmeans_accuracy
from repro.clustering.seeding import kmeans_plus_plus
from repro.lang.dsl import accuracy_metric, allocator, rule, transform
from repro.lang.transform import Transform
from repro.lang.tunables import accuracy_variable, for_enough, switch
from repro.suite.registry import BenchmarkSpec

__all__ = ["build", "generate", "SPEC", "ACCURACY_BINS", "ITERATION_MODES"]

ACCURACY_BINS = (0.10, 0.20, 0.50, 0.75, 0.95)
ITERATION_MODES = ("once", "threshold", "fixpoint")

#: Upper bound for the cluster-count accuracy variable; rules clamp to
#: the actual number of points.
MAX_CLUSTERS = 4096


def _metric(outputs, inputs) -> float:
    return kmeans_accuracy(inputs["points"], outputs["assignments"])


def _clamped_k(ctx, points: np.ndarray) -> int:
    return max(1, min(int(ctx.param("k")), points.shape[0]))


def build() -> tuple[Transform, tuple[Transform, ...]]:
    @transform(inputs=("points",), through=("centroids",),
               outputs=("assignments",), accuracy_bins=ACCURACY_BINS)
    class kmeans:
        k = accuracy_variable(lo=1, hi=MAX_CLUSTERS, default=2,
                              direction=+1)
        lloyd_iters = for_enough(max_iters=100, default=20)
        iter_mode = switch(choices=ITERATION_MODES, default="fixpoint",
                           affects_accuracy=True)
        change_threshold = accuracy_variable(lo=0.0, hi=0.9,
                                             default=0.25, integer=False,
                                             direction=-1,
                                             scaling="uniform")

        metric = accuracy_metric(_metric, name="kmeansaccuracy")

        # Centroids[2, k]: the accuracy variable k sizes the
        # through-data, as in the paper's transform header.
        @allocator("centroids")
        def centroids(ctx, data):
            return np.empty((2, _clamped_k(ctx, data["points"])))

        # Rule 1: random initial centers, one centroid column per call
        # — the compiler synthesizes the outer loop (Section 2.1).
        @rule(outputs=("centroids",), granularity="column")
        def random_init(ctx, j, out, points):
            index = int(ctx.rng.integers(0, points.shape[0]))
            out[:, j] = points[index]
            ctx.add_cost(1)

        # Rule 2: CenterPlus (k-means++) initial centers.
        @rule(outputs=("centroids",))
        def center_plus(ctx, points):
            centers, ops = kmeans_plus_plus(
                points, _clamped_k(ctx, points), ctx.rng)
            ctx.add_cost(ops)
            return centers.T.copy()

        # Rule 3: the iterative kmeans solver.
        @rule
        def lloyd(ctx, points, centroids):
            # Each tunable is read only on the branch that uses it, so
            # configs differing in an unused one replay one execution.
            mode = ctx.param("iter_mode")
            if mode == "once":
                max_iterations, fraction = 1, 1.0
            elif mode == "threshold":
                max_iterations = int(ctx.param("lloyd_iters"))
                fraction = float(ctx.param("change_threshold"))
            else:  # fixpoint: iterate until change == 0
                max_iterations = int(ctx.param("lloyd_iters"))
                fraction = 0.0
            assignments, _, iterations = lloyd_iterations(
                points, centroids.T, max_iterations=max_iterations,
                change_fraction=fraction, on_cost=ctx.add_cost)
            ctx.record("lloyd", mode=mode, iterations=iterations,
                       k=centroids.shape[1])
            return assignments

    return kmeans, ()


def generate(n: int, rng: np.random.Generator):
    points, true_k = generate_clustered_points(n, rng)
    return {"points": points, "true_k": true_k}


SPEC = BenchmarkSpec(
    name="clustering",
    build=build,
    generate=generate,
    training_sizes=(16.0, 64.0, 256.0, 1024.0, 2048.0),
    cost_limit=None,
    description="variable-k kmeans with seeding and stopping choices",
)
