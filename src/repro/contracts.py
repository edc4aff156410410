"""Kernel contracts: machine-checkable pledges the analyzer enforces.

A decorator records the pledge in an identity-keyed registry and
returns the function *unchanged* (zero call overhead, no wrapper to
break pickling), and the :mod:`repro.analysis` static analyzer — not
the runtime — enforces the declared property.

The substrate packages (:mod:`repro.linalg`, :mod:`repro.multigrid`,
:mod:`repro.clustering`) honour two contracts the layers above depend
on:

* **stacked** — the kernel accepts one leading batch dimension on its
  array arguments and computes all slices in single vectorized calls,
  with per-slice costs identical to running the scalar kernel per
  slice (the batching contract behind ``batchable=True``).
* **dtype_preserving** — floating input dtypes are preserved end to
  end (float32 stays float32; non-floating inputs promote to float64),
  the contract behind the ``precision()`` tunable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["KernelContract", "kernel", "contract_of",
           "registered_kernels"]

F = TypeVar("F", bound=Callable)


@dataclass(frozen=True)
class KernelContract:
    """The declared properties of one substrate kernel."""

    #: Accepts a leading batch dimension on array arguments; per-slice
    #: results and costs match the scalar kernel run per slice.
    stacked: bool = False
    #: Preserves floating input dtypes end to end (float32 stays
    #: float32); non-floating inputs promote to float64.
    dtype_preserving: bool = False


#: Registry keyed by the function object itself.  The analyzer resolves
#: call sites to actual function objects (through module globals and
#: closure cells), so identity keys are exact — no name collisions, no
#: stale string paths.
_REGISTRY: dict[Callable, KernelContract] = {}


def kernel(*, stacked: bool = False,
           dtype_preserving: bool = False) -> Callable[[F], F]:
    """Register a substrate kernel's contract.  Returns ``fn`` as-is."""

    contract = KernelContract(stacked=stacked,
                              dtype_preserving=dtype_preserving)

    def register(fn: F) -> F:
        _REGISTRY[fn] = contract
        return fn

    return register


def contract_of(fn: Callable) -> KernelContract | None:
    """The registered contract of ``fn``, or ``None`` if unregistered."""
    return _REGISTRY.get(fn)


def registered_kernels() -> dict[Callable, KernelContract]:
    """A snapshot of the registry (function -> contract)."""
    return dict(_REGISTRY)
