"""Known-optimal training data for bin packing.

"we generate training data by dividing up full bins into a number of
items ...  Using this method, we can construct an accuracy metric that
measures the relative performance of an algorithm to the optimal
packing at training time, without the need for an exponential search"
(Section 6.1.1).

Every generated bin sums exactly to the capacity, so the optimal
packing uses exactly the number of generated bins (total item volume
equals ``bins * capacity`` and no packing can use fewer bins than the
ceiling of the total volume).

A bin's pieces are ``Dirichlet(1, ..., 1)`` draws, computed the way
``Generator.dirichlet`` computes them for all-one weights but without
its per-call argument checks: ``count`` standard exponential draws,
each times ``1.0 / total`` where ``total`` is their left-to-right sum.
Every draw, and so every generated item, is bit-identical to
``rng.dirichlet(np.ones(count)) * capacity``, and the generator ends in
the same state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["generate_items_with_known_optimal"]


def generate_items_with_known_optimal(
        n: int, rng: np.random.Generator, *,
        capacity: float = 1.0,
        two_piece_probability: float = 0.6,
        max_pieces: int = 4,
        shuffle: bool = True) -> tuple[np.ndarray, int]:
    """Generate exactly ``n`` items whose optimal packing is known.

    Full bins are split into uniformly-weighted (Dirichlet(1,...,1))
    pieces until exactly ``n`` items exist; each bin holds 2 pieces
    with probability ``two_piece_probability`` and 3..``max_pieces``
    otherwise.  The final bin takes however many pieces remain (a
    single piece of size ``capacity`` is legal and keeps optimality).
    ``capacity`` must be finite and positive.

    The two-piece bias shapes the item-size distribution so the
    accuracy spread across the 13 heuristics mirrors the paper's
    Figure 7: decreasing-fit variants approach the optimum (ratios
    near 1.0 at large n), plain fits land around 1.02-1.07, WorstFit
    near 1.15 and NextFit near 1.3.  Returns ``(items, optimal_bins)``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 items: {n}")
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise ValueError(f"capacity must be finite and > 0: {capacity}")
    if not 0.0 <= two_piece_probability <= 1.0:
        raise ValueError(
            f"two_piece_probability must be in [0, 1]: "
            f"{two_piece_probability}")
    if max_pieces < 2:
        raise ValueError(f"max_pieces must be >= 2: {max_pieces}")
    pieces: list[float] = []
    generated = 0
    bins = 0
    while generated < n:
        remaining = n - generated
        if remaining <= max_pieces:
            count = remaining
        elif max_pieces == 2 or rng.random() < two_piece_probability:
            count = 2
        else:
            count = int(rng.integers(3, max_pieces + 1))
        # Generator.dirichlet(np.ones(count)), without its checks.
        draws = rng.standard_exponential(count).tolist()
        total = 0.0
        for draw in draws:  # not sum(): it compensates from Python 3.12
            total += draw
        scale = 1.0 / total
        pieces += [draw * scale * capacity for draw in draws]
        generated += count
        bins += 1
    items = np.array(pieces)
    if shuffle:
        rng.shuffle(items)
    return items, bins
