"""Bin-selection and verify-escalation policy (Sections 3.2 and 4.2).

The paper's deployed programs answer two questions at request time:

* **Which bin runs first?**  Dynamic bin lookup picks the *cheapest*
  tuned bin that satisfies the requested accuracy; when no bin does,
  the request falls back to the most accurate bin available — an event
  callers must be able to observe rather than a silent degradation.
* **What happens when ``verify_accuracy`` fails?**  "The algorithm can
  be retried with the next higher level of accuracy": the escalation
  ladder is the suffix of bins at least as accurate as the starting
  bin.

Both questions are pure functions over ``(bins, metric)``.  They used
to live inline in :class:`~repro.runtime.executor.TunedProgram`; this
module extracts them so the single-call path and the batched
:class:`~repro.serving.ServingEngine` make *identical* decisions by
construction.

Throughout, ``bins`` is a sequence sorted least- to most-accurate (the
declaration order of ``accuracy_bins`` on the transform, which every
:class:`~repro.runtime.executor.TunedProgram` preserves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import TrainingError
from repro.lang.metrics import AccuracyMetric

__all__ = ["BinDecision", "RequestPlan", "select_bin",
           "most_accurate_bin", "escalation_ladder", "escalation_ladders",
           "plan_request", "PromotionDecision", "judge_shadow",
           "SheddingPolicy", "update_shed_level",
           "DegradeDecision", "degrade_request"]


@dataclass(frozen=True)
class BinDecision:
    """The outcome of one dynamic bin lookup.

    ``fallback`` is True when no tuned bin satisfies the requested
    accuracy and the most accurate bin was chosen instead — the target
    is *not met by construction* and callers should surface that.
    """

    target: float
    fallback: bool = False
    requested: float | None = None


def most_accurate_bin(bins: Sequence[float]) -> float:
    """The most accurate tuned bin (the fallback and default choice)."""
    if not bins:
        raise ValueError("no tuned accuracy bins to select from")
    return bins[-1]


def select_bin(bins: Sequence[float], metric: AccuracyMetric,
               requested: float) -> BinDecision:
    """Dynamic bin lookup: cheapest bin whose target meets ``requested``.

    Bins are scanned least- to most-accurate, so the first satisfying
    bin is the cheapest.  When none satisfies, the most accurate bin is
    returned with ``fallback=True``.
    """
    requested = float(requested)
    for target in bins:
        if metric.meets(target, requested):
            return BinDecision(target=target, requested=requested)
    return BinDecision(target=most_accurate_bin(bins), fallback=True,
                       requested=requested)


def escalation_ladder(bins: Sequence[float], metric: AccuracyMetric,
                      start: float) -> tuple[float, ...]:
    """Bins to try, in order, starting at ``start``.

    The ladder is ``start`` followed by every strictly more accurate
    bin — the retry sequence of a failed ``verify_accuracy`` check.
    """
    return tuple(t for t in bins
                 if t == start or metric.better(t, start))


def escalation_ladders(bins: Sequence[float], metric: AccuracyMetric
                       ) -> dict[float, tuple[float, ...]]:
    """Every start bin's :func:`escalation_ladder`, keyed by start.

    They depend only on ``(bins, metric)``, so a deployed program
    builds them once and hands them to every :func:`plan_request`.
    """
    return {start: escalation_ladder(bins, metric, start)
            for start in bins}


@dataclass(frozen=True)
class RequestPlan:
    """Everything decided *before* a tuned request executes: which
    bins to try (in order), the accuracy a verify check must meet,
    and whether dynamic lookup fell back to the most accurate bin."""

    ladder: tuple[float, ...]
    required: float
    fallback: bool = False

    @property
    def start(self) -> float:
        return self.ladder[0]


def plan_request(bins: Sequence[float], metric: AccuracyMetric,
                 accuracy: float | None = None,
                 bin_target: float | None = None, *,
                 ladders: Mapping[float, tuple[float, ...]] | None = None
                 ) -> RequestPlan:
    """Plan one tuned-program request.

    Exactly one of ``accuracy`` (resolved by dynamic bin lookup) or
    ``bin_target`` (an exact bin) may be given; with neither, the most
    accurate bin is planned.  This single prologue is shared by
    ``TunedProgram.run`` and the serving engine, so both paths decide
    identically by construction.  ``ladders`` are the
    :func:`escalation_ladders` of ``(bins, metric)``, built here when
    the caller did not build them once beforehand.
    """
    if accuracy is not None and bin_target is not None:
        raise ValueError("pass either accuracy or bin_target, not both")
    fallback = False
    if bin_target is not None:
        if bin_target not in bins:
            raise TrainingError(
                f"no tuned configuration for bin {bin_target:g}")
        start = bin_target
        required = float(bin_target)
    elif accuracy is not None:
        decision = select_bin(bins, metric, accuracy)
        start = decision.target
        fallback = decision.fallback
        required = float(accuracy)
    else:
        start = most_accurate_bin(bins)
        required = float(start)
    if ladders is None:
        ladders = escalation_ladders(bins, metric)
    return RequestPlan(ladder=ladders[start], required=required,
                       fallback=fallback)


# ----------------------------------------------------------------------
# Load shedding: trade accuracy for capacity under overload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SheddingPolicy:
    """Watermarks and bounds of the accuracy-shedding controller.

    The serving front door sheds *accuracy*, not requests: when load
    crosses a watermark, new traffic is routed to cheaper bins (which
    the policy layer knows cost less and still carry a statistical
    guarantee) instead of being dropped.  ``fill`` throughout is the
    fraction of total shard queue capacity in use; ``p95_budget``
    optionally treats an observed end-to-end p95 above the budget as
    overload even while queues look healthy.

    The watermark pair is a hysteresis band: the shed level rises only
    at/above ``high_watermark``, falls only at/below ``low_watermark``,
    and holds in between — so the controller does not flap around a
    single threshold.
    """

    low_watermark: float = 0.25
    high_watermark: float = 0.75
    p95_budget: float | None = None
    max_level: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                f"shedding watermarks must satisfy 0 <= low <= high <= 1 "
                f"(got low={self.low_watermark}, "
                f"high={self.high_watermark})")
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
        if self.p95_budget is not None and not self.p95_budget > 0:
            raise ValueError("p95_budget must be positive (or None)")


def update_shed_level(level: int, fill: float, policy: SheddingPolicy,
                      *, p95: float | None = None) -> int:
    """One controller step: the next shed level given observed load.

    Pure and memoryless beyond ``level`` itself, so it is trivially
    unit-testable and the front door can call it on every admission.
    The level moves at most one step per call:

    * **up** when ``fill`` reaches the high watermark or the observed
      ``p95`` exceeds the policy's budget (overload), capped at
      ``max_level``;
    * **down** when ``fill`` is at/below the low watermark and the p95
      budget (when both are known) is met again, floored at 0;
    * **held** anywhere in the hysteresis band between the watermarks.
    """
    if level < 0:
        raise ValueError("shed level must be >= 0")
    hot = fill >= policy.high_watermark or (
        policy.p95_budget is not None and p95 is not None
        and p95 > policy.p95_budget)
    if hot:
        return min(policy.max_level, level + 1)
    if fill <= policy.low_watermark and (
            policy.p95_budget is None or p95 is None
            or p95 <= policy.p95_budget):
        return max(0, level - 1)
    return level


@dataclass(frozen=True)
class DegradeDecision:
    """Outcome of one accuracy-degradation decision.

    ``target`` is the bin the request should now ask for; ``nominal``
    is what dynamic bin lookup would have chosen unshedded; ``steps``
    is how many bins cheaper the target is than the nominal choice.
    ``floored`` is True when the requested shed level was clipped —
    by the request's floor bin or by running out of cheaper bins — so
    callers can observe that shedding hit its limit.
    """

    target: float
    steps: int
    nominal: float
    floored: bool = False


def degrade_request(bins: Sequence[float], metric: AccuracyMetric,
                    requested: float | None, level: int, *,
                    floor: float | None = None) -> DegradeDecision:
    """Shed one request's accuracy by up to ``level`` bins.

    ``bins`` is sorted least- to most-accurate — which, by the paper's
    frontier construction, is also cheapest- to most-expensive — so
    *downgrade order is cost order*: each shed step moves exactly one
    bin toward the cheap end of the ladder.

    The nominal bin is what :func:`select_bin` would serve unshedded
    (``requested=None`` means the most accurate bin, exactly as
    :func:`plan_request` treats it).  ``floor`` names the least
    accuracy the caller will accept under shedding; the request is
    never degraded below the cheapest bin satisfying it.  A floor no
    tuned bin satisfies pins the request at its nominal bin — there is
    nothing the controller may shed.  ``level=0`` always returns the
    nominal bin unchanged.
    """
    if level < 0:
        raise ValueError("shed level must be >= 0")
    bins = tuple(bins)
    if not bins:
        raise ValueError("no tuned accuracy bins to degrade over")
    if requested is None:
        nominal_index = len(bins) - 1
    else:
        nominal_index = bins.index(
            select_bin(bins, metric, requested).target)
    if floor is None:
        floor_index = 0
    else:
        floor_decision = select_bin(bins, metric, floor)
        floor_index = (nominal_index if floor_decision.fallback
                       else bins.index(floor_decision.target))
    allowed = max(0, nominal_index - floor_index)
    steps = min(level, allowed)
    return DegradeDecision(target=bins[nominal_index - steps],
                           steps=steps, nominal=bins[nominal_index],
                           floored=steps < level)


# ----------------------------------------------------------------------
# Shadow-promotion policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PromotionDecision:
    """Verdict on a shadow-deployed candidate artifact.

    ``action`` is ``"wait"`` (not enough shadow samples yet),
    ``"promote"`` (the candidate may replace the primary) or
    ``"rollback"`` (the candidate regressed and must be discarded).
    """

    action: str
    reason: str
    samples: int = 0
    primary_mean: float | None = None
    candidate_mean: float | None = None

    def __str__(self) -> str:
        return f"{self.action}: {self.reason}"


def judge_shadow(primary: Sequence[float], candidate: Sequence[float],
                 metric: AccuracyMetric, target: float, *,
                 min_samples: int = 8) -> PromotionDecision:
    """Decide a shadow evaluation from paired accuracy observations.

    ``primary``/``candidate`` are the achieved accuracies both
    artifacts produced on the *same sampled traffic*.  The candidate is
    promoted when its mean accuracy meets the drifted bin's ``target``
    or at least improves on the primary; a candidate that does neither
    is a regression and is rolled back.  Like the rest of this module
    the function is pure, so the single-call tests and the live
    controller decide identically by construction.
    """
    samples = min(len(primary), len(candidate))
    if samples < min_samples:
        return PromotionDecision(
            action="wait",
            reason=f"{samples}/{min_samples} shadow samples",
            samples=samples)
    primary_mean = sum(primary) / len(primary)
    candidate_mean = sum(candidate) / len(candidate)
    decided = dict(samples=samples, primary_mean=primary_mean,
                   candidate_mean=candidate_mean)
    if metric.meets(candidate_mean, target):
        return PromotionDecision(
            action="promote",
            reason=f"candidate mean {candidate_mean:.6g} meets "
                   f"target {target:g}", **decided)
    if metric.better(candidate_mean, primary_mean):
        return PromotionDecision(
            action="promote",
            reason=f"candidate mean {candidate_mean:.6g} improves on "
                   f"primary {primary_mean:.6g} (target {target:g} "
                   f"still unmet)", **decided)
    return PromotionDecision(
        action="rollback",
        reason=f"candidate mean {candidate_mean:.6g} neither meets "
               f"target {target:g} nor improves on primary "
               f"{primary_mean:.6g}", **decided)
