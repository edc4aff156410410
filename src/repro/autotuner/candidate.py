"""Candidate algorithms: a configuration plus its measured results."""

from __future__ import annotations

from repro.autotuner.results import CandidateResults
from repro.autotuner.stats import confidence_bound_from_fit
from repro.config.configuration import Configuration

__all__ = ["Candidate"]


class Candidate:
    """One member of the autotuner's population."""

    _next_id = 0

    __slots__ = ("candidate_id", "config", "results", "parent_id",
                 "parent_config", "lineage")

    def __init__(self, config: Configuration, *,
                 parent: "Candidate | None" = None, step: str = "?"):
        self.candidate_id = Candidate._next_id
        Candidate._next_id += 1
        self.config = config
        self.results = CandidateResults()
        self.parent_id = parent.candidate_id if parent is not None else None
        #: The configuration this one was mutated from (what the undo
        #: meta-mutator restores); None for a root candidate.
        self.parent_config = parent.config if parent is not None else None
        #: Human-readable breadcrumb trail of how this candidate came to
        #: be: the name of each mutation step (a mutator's or guided
        #: mutation's) from its root ancestor.
        self.lineage: tuple[str, ...] = (
            () if parent is None else parent.lineage + (step,))

    # ------------------------------------------------------------------
    def meets_accuracy(self, n: float, target: float, metric,
                       confidence: float | None = None) -> bool:
        """True when this candidate meets accuracy ``target`` at size ``n``.

        With ``confidence`` set, a one-sided confidence bound on the
        mean accuracy must meet the target (the paper's statistical
        guarantee); otherwise the sample mean is used.
        """
        stats = self.results.stats(n, "accuracy")
        if not stats.values or stats.failed:
            return False
        if confidence is None:
            # The unclamped sample mean, as mean_accuracy computes it
            # (NormalFit.mean is clamped to [min, max]).
            return metric.meets(stats.mean, target)
        side = "lower" if metric.higher_is_better else "upper"
        bound = confidence_bound_from_fit(stats.fit, confidence, side=side)
        return metric.meets(bound, target)

    def __repr__(self) -> str:
        return (f"Candidate(#{self.candidate_id}, "
                f"parent={self.parent_id}, "
                f"lineage={len(self.lineage)} steps)")
