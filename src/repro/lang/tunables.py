"""Helper constructors for the DSL's tunable declarations.

These are thin, intention-revealing wrappers over the parameter kinds in
:mod:`repro.config.parameters`.  The names follow the paper's keywords:

* :func:`accuracy_variable` — the ``accuracy variable`` keyword: an
  algorithm-specific parameter that influences accuracy, trained per
  input size (Section 3.2).
* :func:`for_enough` — the ``for enough`` statement: "syntactic sugar
  for adding an accuracy variable to specify the number of iterations
  of a traditional loop".
* :func:`cutoff` — numeric cutoffs compared against data sizes, mutated
  by log-normal scaling (Section 5.4).
* :func:`switch` — small finite choices (storage, iteration order),
  mutated uniformly at random.

A cutoff is a :class:`~repro.config.parameters.SizeValueParam` and a
switch or precision a :class:`~repro.config.parameters.ChoiceSiteParam`,
all three *flat*: one value for every input size.
* :func:`precision` — the transform's floating-point working precision
  (``"float32"``/``"float64"``): the executor casts the instance's
  floating inputs to the configured dtype, so precision becomes one
  more axis the autotuner trades against accuracy.

Each constructor takes its ``name`` first, but the name is *optional*:
inside an ``@repro.lang.transform``-decorated class body the attribute
name is the tunable name (inferred through ``__set_name__``), so

    vcycles = for_enough(max_iters=6, default=2)

never repeats itself.  A nameless constructor call returns a
:class:`TunableDecl` placeholder; the DSL lowering resolves it, and the
imperative :class:`~repro.lang.transform.Transform` API rejects it with
a pointer at the declaration site.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.config.parameters import (PRECISION_DTYPES, ChoiceSiteParam,
                                     PrecisionParam, SizeValueParam)
from repro.errors import LanguageError
from repro.lang.diagnostics import SourceLocation

__all__ = ["accuracy_variable", "for_enough", "cutoff", "switch",
           "precision", "TunableDecl"]


class TunableDecl:
    """A tunable declared without a name (the DSL class-attribute form).

    Records the declaration's source location and the constructor to
    re-run once the name is known.  ``__set_name__`` captures the class
    attribute name when the declaration appears in a class body; the
    ``@transform`` lowering then calls :meth:`build`.
    """

    __slots__ = ("kind", "name", "location", "_factory", "_param")

    def __init__(self, kind: str, factory: Callable[[str], Any]):
        self.kind = kind
        self.name: str | None = None
        # Two frames up: TunableDecl() <- for_enough()/... <- user code.
        self.location = SourceLocation.of_caller(depth=2)
        self._factory = factory
        self._param: Any = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def build(self):
        """The real parameter, once a name is available.

        Domain errors (bad lo/hi, default outside range, ...) surface
        here so the DSL lowering can batch them with a location.
        """
        if self.name is None:
            where = f" (declared at {self.location})" if self.location \
                else ""
            raise LanguageError(
                f"{self.kind}(...) was declared without a name outside "
                f"an @transform class body{where}; pass name=... or "
                f"declare it as a class attribute")
        # Rebuild when the bound name changed: the same declaration
        # object may be bound under different attribute names in
        # different class bodies (__set_name__ runs again each time).
        if self._param is None or self._param.name != self.name:
            self._param = self._factory(self.name)
        return self._param

    def __repr__(self) -> str:
        name = self.name or "<unnamed>"
        return f"<{self.kind} declaration {name!r}>"


def _required(kind: str, **values: Any) -> None:
    missing = [key for key, value in values.items() if value is None]
    if missing:
        raise LanguageError(
            f"{kind}() is missing required argument"
            f"{'s' if len(missing) > 1 else ''}: {', '.join(missing)}")


def accuracy_variable(name: str | None = None, lo: float | None = None,
                      hi: float | None = None,
                      default: float | None = None, *,
                      integer: bool = True,
                      direction: int = 0,
                      scaling: str = "lognormal"
                      ) -> "SizeValueParam | TunableDecl":
    """Declare an ``accuracy variable`` (paper Section 3.2).

    ``direction`` is the guided-mutation hint: +1 if increasing the
    variable tends to increase accuracy, -1 for the opposite, 0 if
    unknown.
    """

    def build(bound_name: str) -> SizeValueParam:
        # Validated here (not eagerly) so a nameless in-class-body
        # declaration reports missing arguments batched with the
        # class's other errors; the named path builds immediately and
        # keeps the fail-fast behaviour.
        _required("accuracy_variable", lo=lo, hi=hi)
        return SizeValueParam(
            name=bound_name, lo=lo, hi=hi,
            default=lo if default is None else default, integer=integer,
            scaling=scaling, accuracy_direction=direction,
            is_accuracy_variable=True)

    if name is None:
        return TunableDecl("accuracy_variable", build)
    return build(name)


def for_enough(name: str | None = None, max_iters: int | None = None,
               default: int = 1) -> "SizeValueParam | TunableDecl":
    """Declare the iteration count of a ``for enough`` loop.

    More iterations are assumed to give more accuracy (direction +1),
    which is exactly the hint the paper's guided mutation exploits for
    iteration counts.
    """

    def build(bound_name: str) -> SizeValueParam:
        _required("for_enough", max_iters=max_iters)
        return SizeValueParam(
            name=bound_name, lo=1, hi=max_iters, default=default,
            integer=True, scaling="lognormal", accuracy_direction=+1,
            is_accuracy_variable=True)

    if name is None:
        return TunableDecl("for_enough", build)
    return build(name)


def cutoff(name: str | None = None, lo: float | None = None,
           hi: float | None = None, default: float | None = None, *,
           integer: bool = True,
           affects_accuracy: bool = False
           ) -> "SizeValueParam | TunableDecl":
    """Declare a scalar cutoff value (blocking size, switch point...)."""

    def build(bound_name: str) -> SizeValueParam:
        _required("cutoff", lo=lo, hi=hi, default=default)
        return SizeValueParam(name=bound_name, lo=lo, hi=hi,
                              default=default, integer=integer,
                              affects_accuracy=affects_accuracy, flat=True)

    if name is None:
        return TunableDecl("cutoff", build)
    return build(name)


def switch(name: str | None = None,
           choices: Sequence[Any] | None = None, default: Any = None, *,
           affects_accuracy: bool = False
           ) -> "ChoiceSiteParam | TunableDecl":
    """Declare a switch over a small finite set of values."""

    def build(bound_name: str) -> ChoiceSiteParam:
        _required("switch", choices=choices)
        choice_tuple = tuple(choices)
        if default is not None and default not in choice_tuple:
            raise LanguageError(
                f"switch {bound_name!r}: default {default!r} is not "
                f"one of the declared choices {choice_tuple!r}")
        return ChoiceSiteParam(name=bound_name, choices=choice_tuple,
                               default=default,
                               affects_accuracy=affects_accuracy, flat=True)

    if name is None:
        return TunableDecl("switch", build)
    return build(name)


def precision(name: str | None = None,
              choices: Sequence[str] = ("float64", "float32"),
              default: str = "float64", *,
              affects_accuracy: bool = True
              ) -> "PrecisionParam | TunableDecl":
    """Declare the transform's floating-point working precision.

    The executor casts the instance's floating inputs to the configured
    dtype before running its rules, and each instance resolves its own
    entry — so a caller can smooth in float32 while its callee checks
    residuals in float64 (per-transform mixed precision).  Defaults to
    ``affects_accuracy=True``: dropping precision plainly can change
    result accuracy, and the statistical guarantee machinery must know.
    """

    def build(bound_name: str) -> PrecisionParam:
        choice_tuple = tuple(choices)
        unknown = [c for c in choice_tuple if c not in PRECISION_DTYPES]
        if unknown:
            valid = ", ".join(sorted(PRECISION_DTYPES))
            listed = ", ".join(repr(c) for c in unknown)
            raise LanguageError(
                f"precision {bound_name!r}: unknown dtype"
                f"{'s' if len(unknown) > 1 else ''} {listed}; "
                f"valid choices: {valid}")
        if default is not None and default not in choice_tuple:
            raise LanguageError(
                f"precision {bound_name!r}: default {default!r} is not "
                f"one of the declared choices {choice_tuple!r}")
        return PrecisionParam(name=bound_name, choices=choice_tuple,
                              default=default,
                              affects_accuracy=affects_accuracy, flat=True)

    if name is None:
        return TunableDecl("precision", build)
    return build(name)
