"""Tuned-artifact persistence and the accuracy-aware serving runtime.

Tune once, serve many — then keep watching: :class:`TunedArtifact` is
the versioned, guarantee-carrying JSON bundle a tuning run produces
(:meth:`repro.autotuner.TuningResult.to_artifact`);
:class:`ArtifactStore` keeps monotonically versioned artifacts on disk
with a latest pointer, retention, and rollback; :class:`ServingEngine`
serves batches of :class:`ServeRequest` traffic over any
:class:`~repro.runtime.backends.ExecutionBackend`, making the same
bin-selection and verify-escalation decisions as single-call
:meth:`~repro.runtime.executor.TunedProgram.run`
(:mod:`repro.runtime.policy` is shared by both).  :class:`FrontDoor`
scales that to a tier and holds its one program registry: engine
workers sharded per the ``async:<shards>x<workers>`` spec, bounded
queues, per-request deadlines, micro-batching into the stacked
execution path, accuracy-aware load shedding under overload, and
atomic :meth:`~FrontDoor.hot_swap` plus shadow deployments across
every shard.

:class:`ServingTelemetry` + :class:`DriftDetector` observe served
accuracy per bin against each artifact's stored statistical guarantee,
and :class:`RetuneController` closes the loop: on drift it runs
incremental background :class:`~repro.autotuner.TuningSession` slices,
shadows the candidate on sampled traffic, and promotes or rolls back.
"""

from repro.serving.artifact import (
    ARTIFACT_KIND,
    SCHEMA_VERSION,
    ArtifactBin,
    TunedArtifact,
)
from repro.serving.controller import RetuneController, RetuneStatus
from repro.serving.engine import ServeRequest, ServeResponse, ServingEngine
from repro.serving.frontdoor import FrontDoor, FrontDoorStats, ShadowStatus
from repro.serving.store import DEFAULT_TAG, ArtifactStore, StoreStats
from repro.serving.telemetry import (
    BinSnapshot,
    DriftDetector,
    DriftEvent,
    ServingTelemetry,
    latency_summary,
)

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_KIND",
    "ArtifactBin",
    "TunedArtifact",
    "ArtifactStore",
    "StoreStats",
    "DEFAULT_TAG",
    "ServeRequest",
    "ServeResponse",
    "ShadowStatus",
    "ServingEngine",
    "FrontDoor",
    "FrontDoorStats",
    "ServingTelemetry",
    "BinSnapshot",
    "DriftDetector",
    "DriftEvent",
    "RetuneController",
    "RetuneStatus",
    "latency_summary",
]
