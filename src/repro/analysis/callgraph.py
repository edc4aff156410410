"""Source-level call-graph discovery for rule bodies and their helpers.

The dead-tunable check works on *function objects* (rule bodies,
accuracy metrics, allocators) and walks the Python source they were
compiled from.  Resolution is hybrid: the AST supplies the call
expressions, and each callee name is resolved against the function's
**runtime** namespaces — ``__globals__``, closure cells (suite
benchmarks register rules through closures), and builtins — so a
resolved callee is the actual object that would be called, not a guess
from import text.  Attribute chains (``np.linalg.norm``) resolve by
``getattr`` through module and class objects only, which cannot run
user code.

Anything unresolvable (method calls on parameters like ``ctx.param``,
dynamic dispatch through containers) is skipped: the walk is
deliberately best-effort and never raises on strange code.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import types
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.lang.diagnostics import SourceLocation

__all__ = ["FunctionInfo", "CallGraph", "transform_functions"]


# ----------------------------------------------------------------------
# Module AST cache
# ----------------------------------------------------------------------
class _ModuleIndex:
    """Parsed AST of one source file, with functions indexed by
    ``(name, first_lineno)`` — ``first_lineno`` being the line of the
    first decorator (or the ``def`` itself), which is exactly what
    ``fn.__code__.co_firstlineno`` reports.  Lambdas index under
    ``("<lambda>", lineno)``, matching their code objects; two lambdas
    on one line are inherently ambiguous, so the collision maps to
    ``None`` (unanalyzable) rather than guessing."""

    def __init__(self, filename: str):
        self.functions: dict[tuple[str, int],
                             "ast.FunctionDef | ast.Lambda | None"] = {}
        try:
            with open(filename, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=filename)
        except (OSError, SyntaxError, ValueError):
            return
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                self.functions[(node.name, first)] = node
            elif isinstance(node, ast.Lambda):
                key = ("<lambda>", node.lineno)
                self.functions[key] = (None if key in self.functions
                                       else node)


@dataclass(frozen=True)
class FunctionInfo:
    """One analyzable function: object + source AST + namespaces."""

    fn: Callable
    node: "ast.FunctionDef | ast.Lambda"
    filename: str

    def location(self) -> SourceLocation:
        return SourceLocation(self.filename, self.node.lineno)

    def local_names(self) -> set[str]:
        """Names bound inside the function (params + any Store)."""
        args = self.node.args
        names = {a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs}
        names.update(a.arg for a in (args.vararg, args.kwarg) if a)
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Name) and \
                    isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    names.add((alias.asname or alias.name).split(".")[0])
        return names

    def namespace(self) -> dict[str, Any]:
        """Globals overlaid with resolved closure cells."""
        space = dict(getattr(self.fn, "__globals__", {}) or {})
        code = getattr(self.fn, "__code__", None)
        closure = getattr(self.fn, "__closure__", None)
        if code is not None and closure:
            for name, cell in zip(code.co_freevars, closure):
                try:
                    space[name] = cell.cell_contents
                except ValueError:  # pragma: no cover - empty cell
                    pass
        return space


_RESOLVABLE_BASES = (types.ModuleType, type)


class CallGraph:
    """Lazy whole-program call graph over Python function objects."""

    def __init__(self) -> None:
        self._modules: dict[str, _ModuleIndex] = {}
        self._infos: dict[Any, FunctionInfo | None] = {}

    # ------------------------------------------------------------------
    # Function lookup
    # ------------------------------------------------------------------
    def info(self, fn: Callable) -> FunctionInfo | None:
        """Source AST + namespaces for ``fn``; None when unavailable.

        ``functools.partial`` objects resolve to their underlying
        function; ``functools.wraps``-style wrappers resolve to the
        function they wrap (``__wrapped__``), so a decorated rule is
        analyzed at its real body, not at the decorator's generic
        ``wrapper`` closure.
        """
        fn = CallGraph.unwrap(fn)
        code = getattr(fn, "__code__", None)
        if code is None:
            return None
        if code in self._infos:
            return self._infos[code]
        index = self._modules.get(code.co_filename)
        if index is None:
            index = _ModuleIndex(code.co_filename)
            self._modules[code.co_filename] = index
        # co_name, not __name__: templated rules rewrite __name__
        # (pack.__name__ = algorithm_name) but the AST keeps the
        # compile-time def name, which is exactly co_name.
        node = index.functions.get((code.co_name, code.co_firstlineno))
        info = None if node is None else FunctionInfo(
            fn=fn, node=node, filename=code.co_filename)
        self._infos[code] = info
        return info

    @staticmethod
    def unwrap(obj: Any) -> Any:
        """Peel ``functools.partial`` layers and ``__wrapped__`` chains
        down to the underlying function; ``None`` on a wrapper cycle."""
        while isinstance(obj, functools.partial):
            obj = obj.func
        try:
            obj = inspect.unwrap(obj)
        except ValueError:  # pragma: no cover - __wrapped__ cycle
            return None
        while isinstance(obj, functools.partial):
            obj = obj.func
        return obj

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    @staticmethod
    def resolve(node: ast.AST, namespace: dict[str, Any],
                local_names: set[str]) -> Any:
        """Resolve a Name/Attribute expression to a runtime object.

        Returns ``None`` when the expression is rooted in a local name
        or cannot be resolved without executing code.  Attribute access
        only descends through modules and classes.
        """
        if isinstance(node, ast.Name):
            if node.id in local_names:
                return None
            if node.id in namespace:
                return namespace[node.id]
            return getattr(builtins, node.id, None)
        if isinstance(node, ast.Attribute):
            base = CallGraph.resolve(node.value, namespace, local_names)
            if base is None or not isinstance(base, _RESOLVABLE_BASES):
                return None
            try:
                return getattr(base, node.attr, None)
            except Exception:  # pragma: no cover - exotic descriptors
                return None
        return None

    def callees(self, info: FunctionInfo) -> Iterator[Any]:
        """Resolved callees of the calls inside ``info``.

        Walks the function *body* only: decorator expressions and
        default-argument values execute at import time, not when a rule
        runs, so they are not part of the execution-time call graph.
        """
        namespace = info.namespace()
        local_names = info.local_names()
        body = info.node.body
        for statement in body if isinstance(body, list) else [body]:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    callee = self.resolve(node.func, namespace,
                                          local_names)
                    if callee is not None:
                        yield callee

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    @staticmethod
    def _should_descend(callee: Any, origin_files: set[str]) -> bool:
        """Descend into project functions only: anything under the
        ``repro`` package, plus functions declared in the same files as
        the traversal roots (example scripts, test fixtures)."""
        if not isinstance(callee, types.FunctionType):
            return False
        module = getattr(callee, "__module__", None) or ""
        if module == "repro" or module.startswith("repro."):
            return True
        return callee.__code__.co_filename in origin_files

    def reachable(self, roots: Iterable[Callable]) -> list[FunctionInfo]:
        """Every analyzable function transitively called from ``roots``.

        Roots come first, in order; discovery order after that.
        """
        roots = [self.unwrap(fn) for fn in roots]
        origin_files = {
            fn.__code__.co_filename for fn in roots
            if getattr(fn, "__code__", None) is not None}
        seen: set[Any] = set()
        ordered: list[FunctionInfo] = []
        stack: list[Callable] = roots[::-1]
        while stack:
            fn = self.unwrap(stack.pop())
            code = getattr(fn, "__code__", None)
            if code is None or code in seen:
                continue
            seen.add(code)
            info = self.info(fn)
            if info is None:
                continue
            ordered.append(info)
            for callee in self.callees(info):
                callee = self.unwrap(callee)
                if self._should_descend(callee, origin_files):
                    stack.append(callee)
        return ordered


def transform_functions(transform) -> list[Callable]:
    """The traversal roots of a transform: its rule bodies, then its
    accuracy metric and allocators."""
    roots = [rule.fn for rule in transform.rules]
    metric = transform.accuracy_metric
    if metric is not None and callable(getattr(metric, "fn", None)):
        roots.append(metric.fn)
    roots.extend(transform.allocators.values())
    return roots
