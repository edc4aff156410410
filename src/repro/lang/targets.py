"""Shared target resolution for the ``repro.lang`` tool surfaces.

``describe`` and ``check`` accept the same spectrum of targets — a
compiled program, a transform, a factory, a registered benchmark name,
or an example file full of module-level declarations.  This module is
the one place that spectrum is turned into compiled programs, so the
two tools cannot drift apart in what they accept.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import types
from typing import Any, Sequence

from repro.errors import ConfigError
from repro.lang.transform import Transform

__all__ = ["resolve_program", "load_example_transforms",
           "load_example_targets", "example_files"]


def resolve_program(target, extras: Sequence[Transform] = ()):
    """Compile ``target`` into a program, whatever form it takes.

    Accepts an already-compiled
    :class:`~repro.compiler.program.CompiledProgram`, a (DSL-lowered or
    imperative) :class:`Transform`, a zero-argument factory returning a
    transform or ``(root, extras)`` tuple, or a registered benchmark
    name.
    """
    from repro.compiler.compile import compile_program
    from repro.compiler.program import CompiledProgram

    if isinstance(target, CompiledProgram):
        return target
    if isinstance(target, Transform):
        return compile_program(target, extras)[0]
    if isinstance(target, str):
        from repro.suite.registry import get_benchmark
        try:
            spec = get_benchmark(target)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        return spec.compile()[0]
    if callable(target):
        built = target()
        if isinstance(built, tuple):
            root, factory_extras = built
        else:
            root, factory_extras = built, ()
        return compile_program(root, tuple(factory_extras) + tuple(extras))[0]
    raise TypeError(
        f"describe/check take a CompiledProgram, Transform, "
        f"factory callable or benchmark name; got {type(target).__name__}")


def load_example_transforms(path) -> list[Transform]:
    """Import one example file; return its module-level transforms.

    Importing the module runs every module-level ``@transform``
    declaration through the batched-diagnostics lowering, so a broken
    declaration raises a :class:`~repro.errors.ReproError` carrying its
    :class:`~repro.lang.diagnostics.Diagnostics` — callers decide how
    to report it.  Each returned transform is meant to be compiled with
    the others as extras (so cross-transform call sites resolve).
    """
    return [value for value in vars(_import_example(path)).values()
            if isinstance(value, Transform)]


def _import_example(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(
        f"_repro_example_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_transform_factory(fn: Any, module_name: str) -> bool:
    """A zero-argument module function annotated ``-> Transform``.

    The conventional shape examples use to build a transform on demand
    (``make_transform() -> Transform``); the annotation requirement is
    what keeps ``main()``-style demo drivers from being called.
    """
    if not isinstance(fn, types.FunctionType) or \
            fn.__module__ != module_name:
        return False
    annotation = fn.__annotations__.get("return")
    if annotation is not Transform and annotation != "Transform":
        return False
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return all(p.default is not p.empty
               or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
               for p in signature.parameters.values())


def load_example_targets(path) -> "list[tuple[str, Any, tuple]]":
    """``(name, target, extras)`` triples for one example file.

    Module-level :class:`Transform` instances come first, each paired
    with its siblings as extras (so cross-transform call sites
    resolve), followed by zero-argument factory functions annotated
    ``-> Transform``, in definition order.  Every ``target`` is
    something :func:`resolve_program` accepts; import failures raise
    exactly like :func:`load_example_transforms`.
    """
    module = _import_example(path)
    transforms = [value for value in vars(module).values()
                  if isinstance(value, Transform)]
    targets: list[tuple[str, Any, tuple]] = []
    for root in transforms:
        extras = tuple(other for other in transforms if other is not root)
        targets.append((root.name, root, extras))
    for name, value in vars(module).items():
        if _is_transform_factory(value, module.__name__):
            targets.append((name, value, ()))
    return targets


def example_files(directory) -> list[str]:
    """Sorted ``.py`` paths directly inside ``directory``."""
    return [os.path.join(directory, entry)
            for entry in sorted(os.listdir(directory))
            if entry.endswith(".py")]
