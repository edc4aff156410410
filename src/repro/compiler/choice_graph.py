"""The choice dependency graph.

Section 4.1: "the main transform level representation is the choice
dependency graph ... data dependencies are represented by vertices,
while rules are represented by graph hyperedges".  A *group* is the set
of rules sharing an output tuple (one hyperedge per rule choice group).
Folding each datum into the group that produces it leaves a graph over
groups alone, which the standard library's
:class:`graphlib.TopologicalSorter` orders to

* validate that the program is schedulable (acyclic once rules'
  self-dependencies are dropped), and
* derive the execution schedule: a topological order over choice
  groups such that every group runs after all data any of its
  candidate rules may read.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Tuple

from repro.errors import CompileError
from repro.lang.rule import Rule
from repro.lang.transform import Transform

__all__ = ["ChoiceGroup", "schedule_groups"]


@dataclass(frozen=True)
class ChoiceGroup:
    """All rules producing the same output tuple.

    Groups with more than one rule are algorithmic choice sites; the
    site name is the '+'-joined output tuple, which is stable across
    runs and readable in configuration files.
    """

    outputs: Tuple[str, ...]
    rules: Tuple[Rule, ...]

    @property
    def site_name(self) -> str:
        return "+".join(self.outputs)

    @property
    def is_choice_site(self) -> bool:
        return len(self.rules) > 1

    def effective_inputs(self) -> frozenset[str]:
        """Union of data any candidate rule may read.

        A rule's own outputs are excluded: iterative rules (like the
        kmeans solver, which updates Centroids in place) may read data
        they produce without creating a scheduling cycle.
        """
        reads: set[str] = set()
        for rule in self.rules:
            reads.update(set(rule.inputs) - set(rule.outputs))
        return frozenset(reads)


def schedule_groups(transform: Transform) -> list[ChoiceGroup]:
    """Topologically order the choice groups of ``transform``.

    The order is valid for *any* runtime choice because each group's
    dependencies are the union over its candidate rules (a conservative
    over-approximation; PetaBricks prunes per-choice, which only
    matters for performance of scheduling, not correctness).
    """
    transform.validate()
    groups = {outputs: ChoiceGroup(outputs, tuple(rules))
              for outputs, rules in transform.choice_groups()}
    producer = {name: outputs for outputs in groups for name in outputs}
    sorter = TopologicalSorter()
    for outputs, group in groups.items():
        sorter.add(outputs, *(producer[read]
                              for read in sorted(group.effective_inputs())
                              if read in producer))
    try:
        return [groups[outputs] for outputs in sorter.static_order()]
    except CycleError as exc:
        raise CompileError(
            f"transform {transform.name!r}: choice dependency graph has a "
            f"cycle: {exc.args[1]}") from None
