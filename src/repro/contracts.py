"""Contract registries: machine-checkable pledges the analyzer enforces.

Two contract families live here.  Both follow the same design rule:
a decorator records the pledge in an identity-keyed registry and
returns the object *unchanged* (zero call overhead, no wrapper to
break pickling), and the :mod:`repro.analysis` static analyzer — not
the runtime — enforces the declared property.

**Kernel contracts** (PR 9).  The substrate packages
(:mod:`repro.linalg`, :mod:`repro.multigrid`, :mod:`repro.clustering`)
honour two contracts the layers above depend on:

* **stacked** — the kernel accepts one leading batch dimension on its
  array arguments and computes all slices in single vectorized calls,
  with per-slice costs identical to running the scalar kernel per
  slice (the PR-6 batching contract behind ``batchable=True``).
* **dtype_preserving** — floating input dtypes are preserved end to
  end (float32 stays float32; non-floating inputs promote to float64),
  the PR-8 contract behind the ``precision()`` tunable.

**Concurrency contracts**.  The serving tier spreads one request
across caller threads, front-door shard threads, daemon controller
threads and worker processes.  Classes declare the discipline that
keeps that safe, and the :mod:`repro.analysis.concurrency` pass
(REP501, REP504, REP505) checks the declarations against the source:

* :func:`thread_affine` — which thread owns a class's instance state
  (``"caller"`` or ``"daemon"``), overridable per method;
* :func:`guarded_by` — which lock attribute guards which fields;
* :func:`requires_lock` — methods whose callers must already hold a
  lock (the ``# lock held`` comment, made machine-checkable);
* :func:`process_local` — module globals that are *deliberately*
  per-worker-process state (the :mod:`repro.analysis.boundaries`
  pass flags every undeclared mutated module global, REP602).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeVar

__all__ = ["KernelContract", "kernel", "contract_of",
           "registered_kernels",
           "THREAD_AFFINITIES", "ConcurrencyContract", "thread_affine",
           "guarded_by", "requires_lock",
           "concurrency_contract_of", "method_affinity_of",
           "required_lock_of", "process_local", "process_locals_of",
           "declared_concurrency_classes"]

F = TypeVar("F", bound=Callable)
T = TypeVar("T")


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


# ----------------------------------------------------------------------
# Concurrency contracts
# ----------------------------------------------------------------------
#: The thread roles the serving tier runs code on.
THREAD_AFFINITIES = ("caller", "daemon")


@dataclass
class ConcurrencyContract:
    """The declared threading discipline of one class.

    ``affinity`` names the thread that owns the instance state; every
    method defaults to it unless individually overridden with
    :func:`thread_affine`.  ``guards`` maps field name -> the lock
    attribute that must be held to touch it.
    """

    affinity: str | None = None
    guards: dict[str, str] = field(default_factory=dict)
    #: Locks declared without guarded fields (pure serialization locks,
    #: e.g. the controller's ``_poll_lock``) — still tracked for
    #: acquisition-order analysis.
    extra_locks: set[str] = field(default_factory=set)

    @property
    def locks(self) -> tuple[str, ...]:
        """Every distinct declared lock attribute, sorted."""
        return tuple(sorted(set(self.guards.values())
                            | self.extra_locks))


#: Class -> declared concurrency contract (identity-keyed, like the
#: kernel registry: the analyzer resolves classes to objects, so there
#: are no string paths to go stale).
_CONCURRENCY: dict[type, ConcurrencyContract] = {}

#: Function -> per-method affinity override.
_METHOD_AFFINITY: dict[Callable, str] = {}

#: Function -> lock attribute its callers must already hold.
_REQUIRED_LOCK: dict[Callable, str] = {}

#: (module name, global name) pairs declared as deliberate per-process
#: worker state.
_PROCESS_LOCAL: set[tuple[str, str]] = set()


def _contract_for(cls: type) -> ConcurrencyContract:
    contract = _CONCURRENCY.get(cls)
    if contract is None:
        contract = _CONCURRENCY[cls] = ConcurrencyContract()
    return contract


def thread_affine(affinity: str) -> Callable[[T], T]:
    """Declare which thread owns a class's state (or runs a method).

    On a class, ``affinity`` is the owner of the instance state and the
    default affinity of every method; on a function/method it overrides
    that default (the front door's shard workers run on their own
    daemon threads).  Returns the object unchanged.
    """
    if affinity not in THREAD_AFFINITIES:
        raise ValueError(
            f"thread affinity must be one of {THREAD_AFFINITIES}; "
            f"got {affinity!r}")

    def register(obj: T) -> T:
        if isinstance(obj, type):
            _contract_for(obj).affinity = affinity
        else:
            _METHOD_AFFINITY[obj] = affinity  # type: ignore[index]
        return obj

    return register


def guarded_by(lock: str, *fields: str) -> Callable[[type], type]:
    """Declare that ``fields`` may only be touched holding ``lock``.

    ``lock`` is the *attribute name* of the lock on the same instance
    (``"_lock"``).  Repeatable for classes with several locks.  With no
    fields it merely *declares* the lock — a pure serialization lock
    guarding no state still participates in acquisition-order analysis
    (REP504).
    """

    def register(cls: type) -> type:
        contract = _contract_for(cls)
        if fields:
            contract.guards.update({name: lock for name in fields})
        else:
            contract.extra_locks.add(lock)
        return cls

    return register


def requires_lock(lock: str) -> Callable[[F], F]:
    """Declare that a method's callers must already hold ``lock``.

    The analyzer treats the method body as running with the lock held,
    and flags same-class calls to it from outside the lock (REP501).
    """

    def register(fn: F) -> F:
        _REQUIRED_LOCK[fn] = lock
        return fn

    return register


def concurrency_contract_of(cls: type) -> ConcurrencyContract | None:
    """The declared contract of ``cls``, or ``None`` if undeclared."""
    return _CONCURRENCY.get(cls)


def method_affinity_of(fn: Callable) -> str | None:
    """The per-method affinity override of ``fn``, if declared."""
    return _METHOD_AFFINITY.get(getattr(fn, "__func__", fn))


def required_lock_of(fn: Callable) -> str | None:
    """The lock ``fn``'s callers must hold, if declared."""
    return _REQUIRED_LOCK.get(getattr(fn, "__func__", fn))


def process_local(*names: str, module: str | None = None) -> None:
    """Declare module globals as deliberate per-process worker state.

    Call at module level: ``process_local("_WORKER_PROGRAM")``.  The
    boundary pass (REP602) flags every mutated module global that is
    *not* declared, because worker processes each get their own copy
    and silently stop sharing it with the parent.
    """
    if not names:
        raise ValueError("process_local needs at least one global name")
    if module is None:
        module = sys._getframe(1).f_globals.get("__name__", "?")
    for name in names:
        _PROCESS_LOCAL.add((module, name))


def process_locals_of(module: str) -> frozenset[str]:
    """Globals of ``module`` declared as per-process state."""
    return frozenset(name for mod, name in _PROCESS_LOCAL
                     if mod == module)


def declared_concurrency_classes() -> Mapping[type, ConcurrencyContract]:
    """Snapshot of every class with a declared contract."""
    return dict(_CONCURRENCY)
