"""Correctness checks and statistics that do not use the code under test.

The accuracy metrics and the dynamic bin lookup are written again here
from their definitions (the paper's Section 4.2 lookup; the Poisson and
bin-packing metrics as documented in ``repro.suite``), so a regression
in the program's own metric or policy code cannot vouch for itself.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["poisson_accuracy", "binpacking_accuracy", "expected_bin",
           "nearest_rank", "tail_percentile", "smoothed_share",
           "mean", "geomean", "fastest", "fast_mean"]

#: float64 cannot resolve more than ~16 orders of magnitude; the Poisson
#: metric is clamped there.
POISSON_MAX_ORDERS = 16.0


def poisson_accuracy(u, u_exact) -> float:
    """Orders of magnitude by which ``u`` improves on the zero guess.

    ``log10(RMS(u_exact) / RMS(u - u_exact))``, clamped to
    ``[-16, 16]``; computed in float64 whatever ``u``'s dtype.
    """
    u = np.asarray(u, dtype=np.float64)
    exact = np.asarray(u_exact, dtype=np.float64)
    error = math.sqrt(float(np.mean((u - exact) ** 2)))
    initial = math.sqrt(float(np.mean(exact ** 2)))
    if error == 0.0:
        return POISSON_MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return max(-POISSON_MAX_ORDERS,
               min(POISSON_MAX_ORDERS, math.log10(initial / error)))


def binpacking_accuracy(items, assignment, num_bins, optimal_bins
                        ) -> float:
    """Bins used over the known optimum, after checking the packing.

    Raises ``ValueError`` when an item is unplaced, a bin overflows its
    unit capacity, or ``num_bins`` disagrees with the assignment.
    """
    items = np.asarray(items, dtype=np.float64)
    assignment = np.asarray(assignment)
    if assignment.shape != items.shape or np.any(assignment < 0):
        raise ValueError("packing leaves an item unplaced")
    used = np.unique(assignment)
    if len(used) != int(num_bins) or used[-1] >= int(num_bins):
        raise ValueError(f"packing reports {num_bins} bins but uses "
                         f"{len(used)}")
    loads = np.zeros(int(num_bins))
    np.add.at(loads, assignment, items)
    if np.any(loads > 1.0 + 1e-6):
        raise ValueError(f"a bin holds {loads.max():.9f} > capacity 1")
    return float(num_bins) / float(optimal_bins)


def expected_bin(bins: Sequence[float], higher_is_better: bool,
                 requested: float | None, *, degraded: int = 0,
                 escalations: int = 0) -> tuple[float, bool]:
    """The bin a request must have run in, and whether lookup fell back.

    ``bins`` are ordered least to most accurate.  Dynamic bin lookup
    picks the cheapest bin whose target meets ``requested``; ``None``
    asks for the most accurate bin; when no bin meets the request the
    most accurate bin runs and the lookup *falls back*.  A front door
    may then shed ``degraded`` bins toward the cheap end (the shed
    request names that bin, so it no longer falls back), and verify
    escalation climbs ``escalations`` bins back up.
    """
    fallback = False
    if requested is None:
        nominal = len(bins) - 1
    else:
        meeting = [index for index, target in enumerate(bins)
                   if (target >= requested if higher_is_better
                       else target <= requested)]
        fallback = not meeting
        nominal = meeting[0] if meeting else len(bins) - 1
    return (bins[nominal - degraded + escalations],
            fallback and degraded == 0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The ``ceil(percent/100 * N)``-th smallest value."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered),
                      math.ceil(percent / 100.0 * len(ordered))))
    return ordered[rank - 1]


#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(percent, value)``: the highest percentile that has at least
    ten samples beyond it (the median for fewer than 40 samples)."""
    count = len(values)
    for percent in _TAILS:
        if count - math.ceil(percent / 100.0 * count) >= 10:
            return percent, nearest_rank(values, percent)
    return 50.0, nearest_rank(values, 50.0)


def smoothed_share(hits: int, total: int) -> float:
    """``(hits + 0.5) / (total + 1)``: a share that is never 0.

    The Jeffreys estimate of a rate.  Rare-event shares (accuracy
    misses, degraded responses) are often exactly zero, and a
    regression bound that is a fraction of the median means nothing at
    zero.  With the sample count fixed per workload, zero events always
    read the same value and each further event raises it visibly.
    """
    return (hits + 0.5) / (total + 1.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no values (a layer that never ran)."""
    return sum(values) / len(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Share of a run's repeated units that its timing metrics keep, after
#: each unit's times are divided by the host speed factor probed around
#: it (``speed.py``).  The mean of the faster half discards the units a
#: slow spell hit harder than it hit the probe, and still averages over
#: many units.
FAST_SHARE = 0.5


def fastest(units: Sequence, key: Callable = float,
            share: float = FAST_SHARE) -> list:
    """The ``ceil(share * N)`` units (at least one) of smallest ``key``."""
    count = max(1, math.ceil(share * len(units)))
    return sorted(units, key=key)[:count]


def fast_mean(values: Sequence[float], share: float = FAST_SHARE
              ) -> float:
    """Mean of the fastest ``share`` of ``values``."""
    return mean(fastest(values, share=share))
