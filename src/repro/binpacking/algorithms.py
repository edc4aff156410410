"""The thirteen bin packing approximation algorithms of Section 6.1.1.

All algorithms pack items of size in (0, 1] into unit-capacity bins.
Each returns a :class:`Packing` with the item-to-bin assignment, the
number of bins used, and ``ops`` — the abstract work charged to the
cost model.  ``ops`` counts the bin-capacity comparisons a sequential
implementation performs (the quantity whose asymptotics differ between
the heuristics: NextFit is O(n), the Fit family O(n * bins)), plus
``n log2 n`` for the sort of the Decreasing variants.  The *runtime*
does not perform that scan: First/Last Fit walk a max tree of the bins'
remaining capacities, and Best/Worst Fit bisect a sorted list of
``(remaining, bin index)``, both on Python floats.  This affects
wall-clock only; ``ops`` still counts the sequential scan.

Ties in remaining capacity are broken by bin index: BestFit takes the
lowest index, and the kth-least-full rule of WorstFit/AlmostWorstFit
counts the higher index first.

Worst-case guarantees (paper's list): FirstFit/BestFit 17/10 OPT,
FirstFitDecreasing/BestFitDecreasing 11/9 OPT (the paper cites 10/9),
ModifiedFirstFitDecreasing 71/60 OPT, NextFit 2 OPT.
"""

from __future__ import annotations

import collections
import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Packing", "validate_packing", "ALGORITHMS",
    "first_fit", "first_fit_decreasing", "modified_first_fit_decreasing",
    "best_fit", "best_fit_decreasing", "last_fit", "last_fit_decreasing",
    "next_fit", "next_fit_decreasing", "worst_fit",
    "worst_fit_decreasing", "almost_worst_fit",
    "almost_worst_fit_decreasing",
]

#: Tolerance for capacity checks: known-optimal inputs split unit bins
#: into items whose float sums can exceed 1.0 by rounding error.
EPSILON = 1e-9


@dataclass(frozen=True)
class Packing:
    """Result of packing ``n`` items."""

    assignment: np.ndarray  # item index -> bin index
    num_bins: int
    ops: float              # abstract work (comparisons + sort cost)


def validate_packing(items: np.ndarray, packing: Packing,
                     capacity: float = 1.0) -> bool:
    """Check every item is placed and no bin exceeds capacity."""
    items = np.asarray(items, dtype=float)
    assignment = packing.assignment
    if assignment.shape != items.shape:
        return False
    if np.any(assignment < 0) or np.any(assignment >= packing.num_bins):
        return False
    fills = np.zeros(packing.num_bins)
    np.add.at(fills, assignment, items)
    return bool(np.all(fills <= capacity + 1e-6))


def _sort_cost(n: int) -> float:
    return float(n) * math.log2(max(n, 2))


def _fit_tree(sizes: list[float], capacity: float,
              remaining: list[float], ops: float, from_back: bool
              ) -> tuple[list[int], int, float]:
    """FirstFit (LastFit when ``from_back``) of ``sizes`` over open bins.

    ``remaining`` seeds the bins already open.  A max tree over the
    bins' remaining capacities, padded to a power of two with ``-inf``
    for bins not yet opened, finds the leftmost (rightmost) fitting bin
    in O(log bins); ``ops`` still charges the sequential scan, from the
    front (back) up to that bin, or every open bin when a new one opens.
    Returns the bin of each item, the bins used and the updated ``ops``.
    """
    used = len(remaining)
    size = 1 << max(used + len(sizes) - 1, 0).bit_length()
    tree = [-math.inf] * (2 * size)
    tree[size:size + used] = remaining
    for node in range(size - 1, 0, -1):
        left, right = tree[2 * node], tree[2 * node + 1]
        tree[node] = left if left >= right else right
    bins = []
    for item in sizes:
        threshold = item - EPSILON
        if tree[1] >= threshold:
            node = 1
            if from_back:
                while node < size:
                    node = 2 * node + 1
                    if tree[node] < threshold:
                        node -= 1
                index = node - size
                ops += used - index
            else:
                while node < size:
                    node *= 2
                    if tree[node] < threshold:
                        node += 1
                index = node - size
                ops += index + 1
            value = tree[node] - item
        else:
            ops += used
            index = used
            used += 1
            node = size + index
            value = capacity - item
        tree[node] = value
        while node > 1:  # value becomes the max over node's parent
            sibling = tree[node ^ 1]
            if sibling > value:
                value = sibling
            node >>= 1
            if tree[node] == value:
                break
            tree[node] = value
        bins.append(index)
    return bins, used, ops


def _sorted_fit(items: np.ndarray, capacity: float,
                kth: int | None) -> Packing:
    """BestFit (``kth=None``) or the kth-least-full rule over sorted bins.

    Open bins live in a list of ``(remaining, bin index)`` kept sorted,
    so the bins an item fits form its tail.  BestFit takes the first of
    them: the least remaining capacity, lowest index on ties.  The
    kth-least-full rule counts from the end: the most remaining
    capacity first and, among equal capacities, the higher bin index
    first (a stable ascending sort read from the end).  ``ops`` still
    charges a scan of every open bin per item.
    """
    keys: list[tuple[float, int]] = []
    bins = []
    ops = 0.0
    for item in items.tolist():
        ops += len(keys)
        first = bisect_left(keys, (item - EPSILON, -1))
        fitting = len(keys) - first
        if fitting:
            position = first if kth is None else len(keys) - min(kth, fitting)
            remaining, index = keys.pop(position)
            insort(keys, (remaining - item, index))
        else:
            index = len(keys)
            insort(keys, (capacity - item, index))
        bins.append(index)
    return Packing(np.array(bins, dtype=np.int64), len(keys), ops)


def _first_fit_core(items: np.ndarray, capacity: float) -> Packing:
    bins, used, ops = _fit_tree(items.tolist(), capacity, [], 0.0,
                                from_back=False)
    return Packing(np.array(bins, dtype=np.int64), used, ops)


def _last_fit_core(items: np.ndarray, capacity: float) -> Packing:
    bins, used, ops = _fit_tree(items.tolist(), capacity, [], 0.0,
                                from_back=True)
    return Packing(np.array(bins, dtype=np.int64), used, ops)


def _next_fit_core(items: np.ndarray, capacity: float) -> Packing:
    bins = []
    num_bins = 0
    remaining = 0.0
    ops = 0.0
    for item in items.tolist():
        ops += 1
        if num_bins > 0 and remaining >= item - EPSILON:
            remaining -= item
        else:
            num_bins += 1
            remaining = capacity - item
        bins.append(num_bins - 1)
    return Packing(np.array(bins, dtype=np.int64), num_bins, ops)


def _decreasing(core, items: np.ndarray, capacity: float, **kwargs
                ) -> Packing:
    """Reverse-sort the items, run ``core``, map assignment back."""
    items = np.asarray(items, dtype=float)
    order = np.argsort(-items, kind="stable")
    packing = core(items[order], capacity, **kwargs)
    assignment = np.empty_like(packing.assignment)
    assignment[order] = packing.assignment
    return Packing(assignment, packing.num_bins,
                   packing.ops + _sort_cost(len(items)))


# ----------------------------------------------------------------------
# Public algorithms
# ----------------------------------------------------------------------
def first_fit(items, capacity: float = 1.0) -> Packing:
    """Place each item in the first bin with capacity (17/10 OPT)."""
    return _first_fit_core(np.asarray(items, dtype=float), capacity)


def first_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Reverse-sort, then FirstFit (11/9 OPT asymptotically)."""
    return _decreasing(_first_fit_core, items, capacity)


def best_fit(items, capacity: float = 1.0) -> Packing:
    """Place each item in the most-full bin with capacity.

    Among equally full bins, the lowest bin index wins.
    """
    return _sorted_fit(np.asarray(items, dtype=float), capacity, kth=None)


def best_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Reverse-sort, then BestFit."""
    return _decreasing(_sorted_fit, items, capacity, kth=None)


def last_fit(items, capacity: float = 1.0) -> Packing:
    """Place each item in the last nonempty bin that has capacity."""
    return _last_fit_core(np.asarray(items, dtype=float), capacity)


def last_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Reverse-sort, then LastFit."""
    return _decreasing(_last_fit_core, items, capacity)


def next_fit(items, capacity: float = 1.0) -> Packing:
    """Keep one open bin; start a new one when the item misses (2 OPT)."""
    return _next_fit_core(np.asarray(items, dtype=float), capacity)


def next_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Reverse-sort, then NextFit."""
    return _decreasing(_next_fit_core, items, capacity)


def worst_fit(items, capacity: float = 1.0) -> Packing:
    """Place each item in the least-full nonempty bin with capacity.

    Among equally full bins, the highest bin index wins.
    """
    return _sorted_fit(np.asarray(items, dtype=float), capacity, kth=1)


def worst_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Reverse-sort, then WorstFit."""
    return _decreasing(_sorted_fit, items, capacity, kth=1)


def almost_worst_fit(items, capacity: float = 1.0, kth: int = 2) -> Packing:
    """Place each item in the kth-least-full bin that has capacity.

    AlmostWorstFit by definition sets k=2; as in the paper, our
    implementation generalises it to a compiler-set ``kth``.  Bins are
    ranked by remaining capacity, most first; among equally full bins
    the higher bin index ranks first.  With fewer than ``kth`` fitting
    bins, the most-full of them is taken.
    """
    if kth < 1:
        raise ValueError(f"kth must be >= 1: {kth}")
    return _sorted_fit(np.asarray(items, dtype=float), capacity, kth=kth)


def almost_worst_fit_decreasing(items, capacity: float = 1.0,
                                kth: int = 2) -> Packing:
    """Reverse-sort, then AlmostWorstFit."""
    return _decreasing(_sorted_fit, items, capacity, kth=kth)


def modified_first_fit_decreasing(items, capacity: float = 1.0) -> Packing:
    """Johnson & Garey's MFFD variant (71/60 OPT bound).

    Classifies items and pre-pairs small items into the bins opened by
    large items before falling back to FirstFitDecreasing; this is the
    classic simplified presentation of the 71/60 algorithm.
    """
    items = np.asarray(items, dtype=float)
    n = len(items)
    ops = _sort_cost(n) + n  # sort + classification pass
    order = np.argsort(-items, kind="stable").tolist()
    sizes = items.tolist()
    assignment = [-1] * n

    large = [i for i in order if sizes[i] > capacity / 2]
    rest = [i for i in order if sizes[i] <= capacity / 2]

    remaining: list[float] = []
    for index in large:  # one bin per large item, decreasing order
        assignment[index] = len(remaining)
        remaining.append(capacity - sizes[index])

    # Walk large bins from the smallest large item (most free space);
    # insert the smallest remaining item plus the largest that still
    # fits beside it, when such a pair exists.
    pool = collections.deque(rest)  # sorted decreasing
    for bin_index in range(len(remaining) - 1, -1, -1):
        if len(pool) < 2:
            break
        smallest = pool[-1]
        second_smallest = pool[-2]
        ops += 2
        if sizes[smallest] + sizes[second_smallest] > \
                remaining[bin_index] + EPSILON:
            continue
        pool.pop()
        assignment[smallest] = bin_index
        remaining[bin_index] -= sizes[smallest]
        partner = None
        for position, candidate in enumerate(pool):
            ops += 1
            if sizes[candidate] <= remaining[bin_index] + EPSILON:
                partner = position
                break
        if partner is not None:
            candidate = pool[partner]
            del pool[partner]
            assignment[candidate] = bin_index
            remaining[bin_index] -= sizes[candidate]

    # FirstFit the leftovers over all bins (decreasing order preserved).
    bins, used, ops = _fit_tree([sizes[index] for index in pool], capacity,
                                remaining, ops, from_back=False)
    for index, target in zip(pool, bins):
        assignment[index] = target
    return Packing(np.array(assignment, dtype=np.int64), used, ops)


#: Name -> callable, in the paper's listing order (Section 6.1.1).
ALGORITHMS = {
    "FirstFit": first_fit,
    "FirstFitDecreasing": first_fit_decreasing,
    "ModifiedFirstFitDecreasing": modified_first_fit_decreasing,
    "BestFit": best_fit,
    "BestFitDecreasing": best_fit_decreasing,
    "LastFit": last_fit,
    "LastFitDecreasing": last_fit_decreasing,
    "NextFit": next_fit,
    "NextFitDecreasing": next_fit_decreasing,
    "WorstFit": worst_fit,
    "WorstFitDecreasing": worst_fit_decreasing,
    "AlmostWorstFit": almost_worst_fit,
    "AlmostWorstFitDecreasing": almost_worst_fit_decreasing,
}
