"""Concurrency-contract lint over the serving tier (REP501/504/505).

The serving tier spreads one request across four thread roles: caller
threads submit and admit, one front-door thread per shard runs
``engine.serve``, daemon threads poll the retune controller, and worker
processes execute trials.  The discipline that keeps this safe — which
lock guards which field, which methods need a lock already held —
:mod:`repro.contracts` states as declarations
(:func:`~repro.contracts.thread_affine`,
:func:`~repro.contracts.guarded_by`,
:func:`~repro.contracts.requires_lock`) and this pass checks the
declarations against the source:

* **REP501** — a ``guarded_by`` field stored, deleted or mutated in
  place (``.append``/``.pop``/…) outside a lexical ``with self.<lock>``
  scope; also calls to a ``requires_lock`` method without the lock.
* **REP504** — lock-acquisition-order inversion (or re-acquisition)
  across the class's declared lock set, following same-class calls.
* **REP505** — a class that constructs threading primitives
  (``threading.Lock``, ``Thread``, executors, event loops) without
  declaring any concurrency contract at all.

Like every pass here the analysis is lexical and best-effort: it
tracks ``with self._lock:`` scopes and ``self.method()`` edges, and
deliberately does not descend into nested ``def``/``lambda`` bodies —
a closure handed to ``Thread(target=...)`` runs on a different thread
than the method that built it.
"""

from __future__ import annotations

import ast
import asyncio
import concurrent.futures
import multiprocessing
import threading
import types
from typing import Iterable

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.findings import AnalysisReport
from repro.contracts import (
    ConcurrencyContract,
    concurrency_contract_of,
    required_lock_of,
)

__all__ = ["lint_concurrency", "module_classes"]

#: Method names that mutate their receiver in place.  Calling one of
#: these on a guarded field outside its lock is a REP501.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "remove", "pop", "popleft", "popitem", "clear", "update", "add",
    "discard", "setdefault", "move_to_end", "sort", "reverse",
    "rotate",
})

def _primitive_labels() -> dict[int, str]:
    """id(object) -> human label for every threading primitive whose
    construction demands a declared contract (REP505)."""
    labels: dict[int, str] = {}
    for module, names in (
            (threading, ("Lock", "RLock", "Condition", "Event",
                         "Semaphore", "BoundedSemaphore", "Barrier",
                         "Thread", "Timer")),
            (asyncio, ("new_event_loop",)),
            (concurrent.futures, ("ThreadPoolExecutor",
                                  "ProcessPoolExecutor")),
            (multiprocessing, ("Process", "Pool", "Manager", "Queue",
                               "Pipe"))):
        for name in names:
            obj = getattr(module, name, None)
            if obj is not None:
                labels[id(obj)] = f"{module.__name__}.{name}"
    return labels


_PRIMITIVES = _primitive_labels()


def module_classes(module: types.ModuleType) -> list[type]:
    """Classes *defined in* ``module``, in definition order."""
    return [value for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__]


def _class_methods(cls: type) -> dict[str, types.FunctionType]:
    """name -> function for every analyzable method of ``cls``
    (functions, classmethods/staticmethods unwrapped, property
    getters), in definition order."""
    methods: dict[str, types.FunctionType] = {}
    for name, value in vars(cls).items():
        fn = None
        if isinstance(value, types.FunctionType):
            fn = value
        elif isinstance(value, (classmethod, staticmethod)):
            fn = value.__func__
        elif isinstance(value, property):
            fn = value.fget
        if isinstance(fn, types.FunctionType):
            methods[name] = fn
    return methods


class _MethodScan:
    """Lexical lock-scope scan of one method body.

    Records, each with the set of locks lexically held at that point:
    stores/deletes/in-place mutations of ``self.<attr>``
    (``mutations``), ``self.method()`` edges (``self_calls``),
    ``with self.<lock>:`` acquisitions (``acquisitions``), and every
    other call expression (``calls``).  Nested ``def``/``lambda``
    bodies are opaque: they execute on their own schedule and thread.
    """

    def __init__(self, info: FunctionInfo, lock_names: set[str],
                 start_held: Iterable[str] = ()):
        self.info = info
        self.lock_names = lock_names
        self.mutations: list[tuple[str, bool, ast.AST,
                                   frozenset[str]]] = []
        self.self_calls: list[tuple[str, ast.AST,
                                    frozenset[str]]] = []
        self.acquisitions: list[tuple[str, ast.AST,
                                      frozenset[str]]] = []
        self.calls: list[tuple[ast.Call, frozenset[str]]] = []
        body = info.node.body
        self._scan(body if isinstance(body, list) else [], frozenset(start_held))

    # -- statements ----------------------------------------------------
    def _scan(self, statements, held: frozenset) -> None:
        for statement in statements:
            self._stmt(statement, held)

    def _stmt(self, node: ast.stmt, held: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # opaque: runs on its own thread/schedule
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                self._expr(item.context_expr, held)
                lock = self._lock_attr(item.context_expr)
                if lock is not None:
                    self.acquisitions.append(
                        (lock, item.context_expr, held))
                    acquired.add(lock)
            self._scan(node.body, held | acquired)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._target(target, held,
                             inplace=isinstance(node, ast.AugAssign))
            if node.value is not None:
                self._expr(node.value, held)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target(target, held, inplace=True)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child, held)
            elif isinstance(child, ast.expr):
                self._expr(child, held)
            elif isinstance(child, ast.ExceptHandler):
                self._scan(child.body, held)

    # -- assignment targets --------------------------------------------
    def _target(self, node: ast.expr, held: frozenset,
                inplace: bool) -> None:
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            self.mutations.append((node.attr, inplace, node, held))
            return
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Attribute) and _is_self(base.value):
                # self.attr[k] = v mutates the object behind attr
                self.mutations.append((base.attr, True, node, held))
            else:
                self._expr(base, held)
            self._expr(node.slice, held)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._target(element, held, inplace)
            return
        if isinstance(node, ast.Starred):
            self._target(node.value, held, inplace)

    # -- expressions ---------------------------------------------------
    def _expr(self, node: ast.expr, held: frozenset) -> None:
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            return  # opaque, as above
        if isinstance(node, ast.Call):
            self._call(node, held)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, held)
            elif isinstance(child, ast.keyword):
                self._expr(child.value, held)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, held)
                for condition in child.ifs:
                    self._expr(condition, held)

    def _call(self, node: ast.Call, held: frozenset) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_self(func.value):
            self.self_calls.append((func.attr, node, held))
            return
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Attribute) \
                and _is_self(func.value.value) \
                and func.attr in _MUTATORS:
            # self.<attr>.append(...) and friends
            self.mutations.append((func.value.attr, True, node, held))
        self.calls.append((node, held))

    def _lock_attr(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Attribute) and _is_self(expr.value) \
                and expr.attr in self.lock_names:
            return expr.attr
        return None


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def lint_concurrency(graph: CallGraph, module: types.ModuleType,
                     report: AnalysisReport) -> None:
    """Check every class of ``module`` against its declared contract.

    Classes without a contract are checked only for REP505 (do they
    construct threading primitives they should have declared a
    discipline for?); plain single-threaded classes are exempt.
    """
    for cls in module_classes(module):
        _lint_class(graph, cls, report)


def _lint_class(graph: CallGraph, cls: type,
                report: AnalysisReport) -> None:
    methods = _class_methods(cls)
    contract = concurrency_contract_of(cls)
    lock_names = set(contract.locks) if contract is not None else set()
    infos: dict[str, FunctionInfo] = {}
    scans: dict[str, _MethodScan] = {}
    for name, fn in methods.items():
        info = graph.info(fn)
        if info is None:
            continue
        required = required_lock_of(fn)
        infos[name] = info
        scans[name] = _MethodScan(info, lock_names,
                                  (required,) if required else ())
    if contract is None:
        _check_undeclared(cls, infos, scans, report)
        return
    _check_guards(cls, contract, methods, infos, scans, report)
    _check_lock_order(cls, infos, scans, report)


# -- REP505 ------------------------------------------------------------
def _check_undeclared(cls: type, infos, scans,
                      report: AnalysisReport) -> None:
    for name, scan in scans.items():
        info = infos[name]
        namespace = info.namespace()
        local_names = info.local_names()
        for node, _ in scan.calls:
            callee = CallGraph.resolve(node.func, namespace,
                                       local_names)
            label = _PRIMITIVES.get(id(callee))
            if label is not None:
                report.add(
                    "REP505",
                    f"{cls.__name__} constructs {label} but declares "
                    f"no concurrency contract (thread_affine / "
                    f"guarded_by)",
                    transform=cls.__name__, rule=name,
                    location=info.location(node))
                return  # one finding per class is enough to act on


# -- REP501 ------------------------------------------------------------
def _check_guards(cls: type, contract: ConcurrencyContract, methods,
                  infos, scans, report: AnalysisReport) -> None:
    for name, scan in scans.items():
        if name in ("__init__", "__new__"):
            continue  # the object is not shared yet
        info = infos[name]
        for attr, inplace, node, held in scan.mutations:
            lock = contract.guards.get(attr)
            if lock is None or lock in held:
                continue
            verb = "mutated in place" if inplace else "rebound"
            report.add(
                "REP501",
                f"field {attr!r} is guarded by {lock!r} but is {verb} "
                f"outside 'with self.{lock}'",
                transform=cls.__name__, rule=name,
                location=info.location(node))
        for callee_name, node, held in scan.self_calls:
            callee = methods.get(callee_name)
            if callee is None:
                continue
            required = required_lock_of(callee)
            if required is not None and required not in held:
                report.add(
                    "REP501",
                    f"calls {callee_name}(), which requires "
                    f"{required!r} held, without holding it",
                    transform=cls.__name__, rule=name,
                    location=info.location(node))


# -- REP504 ------------------------------------------------------------
def _check_lock_order(cls: type, infos, scans,
                      report: AnalysisReport) -> None:
    # Locks each method acquires, transitively through self-calls.
    acquired = {name: {lock for lock, _, _ in scan.acquisitions}
                for name, scan in scans.items()}
    callees = {name: {callee for callee, _, _ in scan.self_calls
                      if callee in scans}
               for name, scan in scans.items()}
    changed = True
    while changed:
        changed = False
        for name in scans:
            for callee in callees[name]:
                if not acquired[callee] <= acquired[name]:
                    acquired[name] |= acquired[callee]
                    changed = True
    # Ordered edges: held -> newly acquired, at direct acquisitions
    # and through same-class calls made while holding a lock.
    edges: dict[tuple[str, str],
                tuple[FunctionInfo, ast.AST, str]] = {}
    for name, scan in scans.items():
        info = infos[name]
        for lock, node, held in scan.acquisitions:
            for holding in held:
                edges.setdefault((holding, lock), (info, node, name))
        for callee, node, held in scan.self_calls:
            if callee not in scans:
                continue
            for holding in held:
                for lock in acquired[callee]:
                    edges.setdefault((holding, lock),
                                     (info, node, name))
    adjacency: dict[str, set[str]] = {}
    for (first, second) in edges:
        if first != second:
            adjacency.setdefault(first, set()).add(second)
    reported: set[frozenset] = set()
    for (first, second) in sorted(edges):
        info, node, rule = edges[(first, second)]
        if first == second:
            report.add(
                "REP504",
                f"re-acquires {first!r} while already holding it "
                f"(deadlock with a non-reentrant lock)",
                transform=cls.__name__, rule=rule,
                location=info.location(node))
            continue
        if _lock_reachable(adjacency, second, first):
            pair = frozenset((first, second))
            if pair in reported:
                continue
            reported.add(pair)
            report.add(
                "REP504",
                f"lock-order inversion: acquires {second!r} while "
                f"holding {first!r} here, but {cls.__name__} also "
                f"acquires {first!r} while holding {second!r}",
                transform=cls.__name__, rule=rule,
                location=info.location(node))


def _lock_reachable(adjacency: dict[str, set[str]], start: str,
                    goal: str) -> bool:
    seen: set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    return False
