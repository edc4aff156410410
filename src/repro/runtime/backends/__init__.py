"""Pluggable trial-execution backends.

The autotuner's hot loop is trial execution (Section 5.5.1).  This
package defines the batch protocol (:class:`TrialRequest` /
:class:`TrialOutcome` / :class:`ExecutionBackend`), two
interchangeable backends, and a trial-result cache:

* :class:`SerialBackend` — the default; runs trials in submission
  order on the calling thread (the reference semantics);
* :class:`ProcessPoolBackend` — chunked map over worker processes for
  true parallelism;
* :class:`TrialCache` — replays a measurement for any configuration
  that resolves every config value the measured execution read alike,
  across candidates and tuning runs (the Section 5.4 result-reuse
  optimisation, made exact).

Under the deterministic cost objective both backends produce
bit-identical tuning results for a fixed seed; pick by hardware, not
by semantics.
"""

from dataclasses import dataclass

from repro.runtime.backends.base import (
    ExecutionBackend,
    TrialOutcome,
    TrialRequest,
    config_digest,
    execute_trial,
)
from repro.runtime.backends.cache import TrialCache
from repro.runtime.backends.process import ProcessPoolBackend
from repro.runtime.backends.serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "TrialRequest",
    "TrialOutcome",
    "TrialCache",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardPlan",
    "config_digest",
    "execute_trial",
    "backend_from_spec",
]

_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "processes": ProcessPoolBackend,
}

#: The spec forms named by every malformed-spec diagnostic.
_SPEC_FORMS = "'serial', 'process[:N]' or 'async:<shards>x<workers>'"


@dataclass(frozen=True)
class ShardPlan:
    """Parsed ``async:<shards>x<workers>`` serving spec.

    Not an :class:`ExecutionBackend`: the plan describes a *sharded
    front door* — ``shards`` engine workers, each wrapping its own
    process pool of ``workers`` trial executors (process-per-shard
    over the regular backends).  Serving-tier callers
    (``repro.api.Service``, ``repro.serving.frontdoor.FrontDoor.build``)
    expand it into one engine + backend per shard; trial-execution
    callers reject it (see :func:`backend_from_spec`).
    """

    shards: int
    workers: int

    @property
    def shard_backend_spec(self) -> str:
        """The per-shard backend spec the plan expands to."""
        return f"process:{self.workers}"

    def __str__(self) -> str:
        return f"async:{self.shards}x{self.workers}"


def _parse_shard_plan(spec: str, rest: str) -> ShardPlan:
    """Parse the ``<shards>x<workers>`` tail of an async spec."""
    from repro.errors import ConfigError
    shards_text, sep, workers_text = rest.partition("x")
    if not sep or not shards_text or not workers_text:
        raise ConfigError(
            f"async spec {spec!r} needs '<shards>x<workers>' after the "
            f"colon, e.g. 'async:4x2' for 4 shards of 2 workers each")
    try:
        shards, workers = int(shards_text), int(workers_text)
    except ValueError:
        raise ConfigError(
            f"async spec {spec!r}: shard and worker counts must be "
            f"integers, e.g. 'async:4x2'") from None
    if shards < 1 or workers < 1:
        raise ConfigError(
            f"async spec {spec!r}: shard and worker counts must be "
            f">= 1")
    return ShardPlan(shards=shards, workers=workers)


def backend_from_spec(spec: "str | ExecutionBackend", *,
                      allow_sharded: bool = False
                      ) -> "ExecutionBackend | ShardPlan":
    """Build a backend from a spec string — the one shared parser.

    Specs are ``"<name>"`` or ``"<name>:<workers>"``: ``"serial"``
    or ``"process:4"`` (``process`` and ``processes`` are synonyms).  An
    :class:`ExecutionBackend` instance passes through unchanged, so
    every API that takes a spec also takes a hand-built backend.
    Malformed specs raise :class:`~repro.errors.ConfigError` naming
    the accepted forms.

    The ``"async:<shards>x<workers>"`` form describes a sharded
    serving front door rather than a trial-execution backend; it
    parses to a :class:`ShardPlan` only when the caller opts in with
    ``allow_sharded=True`` (serving-tier entry points such as
    ``repro.api.Service``).  Trial-execution callers reject it with a
    ``ConfigError`` pointing at the serving tier.
    """
    from repro.errors import ConfigError
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(
            f"backend spec must be a string like 'serial' or "
            f"'process:4', or an ExecutionBackend instance; got "
            f"{type(spec).__name__}")
    name, sep, count = spec.strip().partition(":")
    if name.lower() == "async":
        if not allow_sharded:
            raise ConfigError(
                f"backend spec {spec!r} builds a sharded serving front "
                f"door, not a trial-execution backend; pass it where a "
                f"serving tier accepts it (e.g. ServicePolicy.backend)")
        return _parse_shard_plan(spec, count if sep else "")
    factory = _BACKENDS.get(name.lower())
    if factory is None:
        raise ConfigError(
            f"unknown execution backend {name!r} in spec {spec!r}; "
            f"valid specs are {_SPEC_FORMS} "
            f"(accepted names: {', '.join(sorted(_BACKENDS))}, async)")
    if not sep:
        return factory()
    if not count:
        raise ConfigError(
            f"backend spec {spec!r} ends in ':' without a worker "
            f"count; use '{name}' or '{name}:<workers>'")
    if factory is SerialBackend:
        raise ConfigError(
            f"backend spec {spec!r}: the serial backend takes no "
            f"worker count")
    try:
        workers = int(count)
    except ValueError:
        raise ConfigError(
            f"backend spec {spec!r}: worker count {count!r} is not an "
            f"integer") from None
    if workers < 1:
        raise ConfigError(
            f"backend spec {spec!r}: worker count must be >= 1")
    return factory(max_workers=workers)
