"""Seeded random-number-generator helpers.

All stochastic components of the library (training-input generation,
mutators, benchmark data generators) receive explicit
``numpy.random.Generator`` objects so that every experiment is
reproducible from a single integer seed.  This module centralises the
derivation of child generators from (seed, label) pairs so that, e.g.,
trial ``i`` at input size ``n`` sees the same input data for every
candidate configuration — the paired-trial design the adaptive testing
heuristic of Section 5.5.1 relies on.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "generator_for", "spawn", "LazyGenerator"]

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, *labels: object) -> int:
    """Return a 64-bit seed derived deterministically from a base seed.

    The labels may be any objects with a stable ``repr`` (ints, strings,
    tuples of those).  Hashing through SHA-256 keeps derived streams
    statistically independent even for adjacent seeds/labels.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode())
    return int.from_bytes(digest.digest()[:8], "little") & _MASK64


def generator_for(base_seed: int, *labels: object) -> np.random.Generator:
    """Return a ``numpy`` Generator seeded from ``derive_seed``."""
    return np.random.default_rng(derive_seed(base_seed, *labels))


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Return a fresh generator seeded from ``rng``'s stream."""
    return np.random.default_rng(int(rng.integers(0, _MASK64, dtype=np.uint64)))


class LazyGenerator:
    """``generator_for(base_seed, *labels)``, derived on first use.

    Deriving a generator (SHA-256 plus ``default_rng``) costs more than
    many rule bodies, and most executions never draw.  An execution
    hands one instance to every context it creates, so whichever rule
    draws first derives the generator and later draws continue the
    same stream.
    """

    __slots__ = ("_labels", "_generator")

    def __init__(self, base_seed: int, *labels: object):
        self._labels = (base_seed, *labels)
        self._generator: np.random.Generator | None = None

    def get(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = generator_for(*self._labels)
        return self._generator
