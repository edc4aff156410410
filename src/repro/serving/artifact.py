"""The versioned tuned-artifact format.

A :class:`TunedArtifact` is the deployable unit of this system: the
JSON-serialisable bundle of everything a fresh process needs to serve
a tuned program without re-tuning —

* **provenance** — which program this is (root transform name) and how
  to rebuild it (``("benchmark", name)`` for suite programs,
  ``("factory", "module:qualname")`` for programs compiled from a
  module-level transform factory), so a loader can recompile the
  program instead of shipping code;
* **per-bin configurations** — the discretized optimal frontier of
  Section 5.5.4, one choice configuration per declared accuracy bin;
* **per-bin guarantees** — the off-line
  :class:`~repro.runtime.guarantees.StatisticalGuarantee` computed
  from training trials (Section 3.3), so the serving layer can report
  what each bin statistically promises;
* **metadata** — tuning seed, settings digest, and a caller-supplied
  timestamp, for audit trails across a fleet of artifacts.

The format is schema-versioned: readers reject versions they do not
understand with :class:`~repro.errors.ArtifactError` instead of
guessing.  kernel-tuner-style systems persist tuning results the same
way — the cache file *is* the product of a tuning run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

from repro.config.configuration import Configuration
from repro.errors import ArtifactError, ConfigError
from repro.runtime.guarantees import StatisticalGuarantee

if TYPE_CHECKING:
    from repro.compiler.program import CompiledProgram
    from repro.runtime.executor import TunedProgram

__all__ = ["SCHEMA_VERSION", "ARTIFACT_KIND", "ArtifactBin",
           "TunedArtifact"]

SCHEMA_VERSION = 1
ARTIFACT_KIND = "repro.tuned-artifact"


@dataclass(frozen=True)
class ArtifactBin:
    """One accuracy bin of the frontier: configuration + guarantee."""

    target: float
    config: Configuration
    guarantee: StatisticalGuarantee | None = None


@dataclass(frozen=True)
class TunedArtifact:
    """A schema-versioned, self-describing tuned program.

    ``bins`` is ordered least- to most-accurate (declaration order);
    ``declared_bins`` records the *full* set the program declares, so
    a loader can tell a partially-tuned artifact (some bins unmet)
    from a mismatched one.
    """

    program: str
    metric: str
    declared_bins: tuple[float, ...]
    bins: tuple[ArtifactBin, ...]
    provenance: tuple[str, str] | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.bins:
            raise ArtifactError(
                f"artifact for {self.program!r} has no tuned bins")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bin_targets(self) -> tuple[float, ...]:
        return tuple(entry.target for entry in self.bins)

    def bin(self, target: float) -> ArtifactBin:
        for entry in self.bins:
            if entry.target == float(target):
                return entry
        raise ArtifactError(
            f"artifact for {self.program!r} has no bin {target:g} "
            f"(tuned bins: {[f'{t:g}' for t in self.bin_targets]})")

    # ------------------------------------------------------------------
    # Conversion to/from runnable programs
    # ------------------------------------------------------------------
    @classmethod
    def from_tuned(cls, tuned: "TunedProgram",
                   metadata: Mapping[str, Any] | None = None
                   ) -> "TunedArtifact":
        program = tuned.program
        bins = tuple(
            ArtifactBin(target=target, config=config,
                        guarantee=tuned.guarantee_for(target))
            for target, config in tuned.bin_configs.items())
        return cls(program=program.root,
                   metric=tuned.metric.name,
                   declared_bins=tuple(
                       program.root_transform.accuracy_bins),
                   bins=bins,
                   provenance=program.provenance,
                   metadata=dict(metadata or {}))

    def to_tuned(self, program: "CompiledProgram") -> "TunedProgram":
        """Attach this artifact to a compiled program.

        Rejects mismatches loudly: a different root transform, or a
        different declared-bin set, means the artifact was tuned for a
        different program and its configurations cannot be trusted.
        So does a bin whose configuration the
        :class:`~repro.runtime.executor.TunedProgram` refuses as
        outside the program's parameter space; its ``ConfigError`` is
        re-raised as :class:`ArtifactError`.
        """
        from repro.runtime.executor import TunedProgram
        if program.root != self.program:
            raise ArtifactError(
                f"artifact was tuned for {self.program!r} but is being "
                f"attached to {program.root!r}")
        declared = tuple(program.root_transform.accuracy_bins)
        if declared != self.declared_bins:
            raise ArtifactError(
                f"artifact for {self.program!r} declares accuracy bins "
                f"{[f'{t:g}' for t in self.declared_bins]} but the "
                f"compiled program declares "
                f"{[f'{t:g}' for t in declared]}")
        configs = {entry.target: entry.config for entry in self.bins}
        guarantees = {entry.target: entry.guarantee for entry in self.bins
                      if entry.guarantee is not None}
        try:
            return TunedProgram(program, configs, guarantees=guarantees)
        except ConfigError as exc:
            raise ArtifactError(str(exc)) from exc

    def resolve_program(self) -> "CompiledProgram":
        """Rebuild the compiled program from recorded provenance.

        Only provenance-tagged programs (e.g. suite benchmarks) can be
        rebuilt; ad-hoc programs must be compiled by the caller and
        passed to :meth:`to_tuned` directly.
        """
        if self.provenance is None:
            raise ArtifactError(
                f"artifact for {self.program!r} records no provenance; "
                f"compile the program yourself and use to_tuned()")
        from repro.compiler.program import _rebuild_from_provenance
        return _rebuild_from_provenance(self.provenance)

    def resolve(self) -> "TunedProgram":
        """Provenance-based one-step load: rebuild program and attach."""
        return self.to_tuned(self.resolve_program())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": ARTIFACT_KIND,
            "program": self.program,
            "metric": self.metric,
            "provenance": list(self.provenance)
            if self.provenance is not None else None,
            "declared_bins": [float(t) for t in self.declared_bins],
            "bins": {
                repr(float(entry.target)): {
                    "config": entry.config.to_json(),
                    "guarantee": entry.guarantee.to_json()
                    if entry.guarantee is not None else None,
                }
                for entry in self.bins
            },
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TunedArtifact":
        if not isinstance(data, Mapping):
            raise ArtifactError(
                f"artifact payload must be a mapping, got "
                f"{type(data).__name__}")
        if data.get("kind") != ARTIFACT_KIND:
            raise ArtifactError(
                f"not a tuned artifact (kind={data.get('kind')!r}, "
                f"expected {ARTIFACT_KIND!r})")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported artifact schema version {version!r}; "
                f"this build reads version {SCHEMA_VERSION}")
        try:
            declared = tuple(float(t) for t in data["declared_bins"])
            raw_bins = data["bins"]
            bins = []
            for key in raw_bins:
                payload = raw_bins[key]
                guarantee = payload.get("guarantee")
                bins.append(ArtifactBin(
                    target=float(key),
                    config=Configuration.from_json(payload["config"]),
                    guarantee=StatisticalGuarantee.from_json(guarantee)
                    if guarantee is not None else None))
            stray = [e.target for e in bins if e.target not in declared]
            if stray:
                raise ArtifactError(
                    f"artifact for {data.get('program')!r} carries bins "
                    f"{[f'{t:g}' for t in stray]} outside its own "
                    f"declared set {[f'{t:g}' for t in declared]}")
            provenance = data.get("provenance")
            return cls(
                program=str(data["program"]),
                metric=str(data.get("metric", "accuracy")),
                declared_bins=declared,
                bins=tuple(sorted(bins,
                                  key=lambda e: declared.index(e.target))),
                provenance=tuple(provenance)
                if provenance is not None else None,
                metadata=dict(data.get("metadata", {})))
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed tuned artifact: {exc!r}") from exc

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "TunedArtifact":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"could not read tuned artifact {path}: {exc}") from exc
        return cls.from_json(data)

    def __repr__(self) -> str:
        return (f"TunedArtifact({self.program!r}, "
                f"bins={[f'{t:g}' for t in self.bin_targets]}, "
                f"provenance={self.provenance})")
