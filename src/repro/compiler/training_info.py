"""The training information file.

Section 5.3: "The training information file (formatted in XML) contains
static analysis information extracted from each PetaBricks program. It
is primarily used by the autotuner to construct the pool of mutators".
This module produces the equivalent structure: a description of every
instance, every tunable (with accuracy-variable flags and
guided-mutation direction hints), the call graph and the accuracy
requirements, serialisable to XML with the standard library.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Mapping

from repro.compiler.program import Instance
from repro.config.parameters import ChoiceSiteParam, ParameterSpace
from repro.lang.transform import Transform

__all__ = ["TunableInfo", "TrainingInfo", "build_training_info"]


@dataclass(frozen=True)
class TunableInfo:
    """Static description of one configuration entry."""

    key: str
    kind: str  # "choice" | "sizevalue"
    is_accuracy_variable: bool = False
    accuracy_direction: int = 0
    affects_accuracy: bool = True
    domain: str = ""


@dataclass(frozen=True)
class TrainingInfo:
    """Everything the autotuner needs to know about the program."""

    root: str
    instances: tuple[str, ...]
    call_graph: tuple[tuple[str, str], ...]  # (caller, callee) edges
    accuracy_bins: tuple[tuple[str, tuple[float, ...]], ...]
    tunables: tuple[TunableInfo, ...]
    metric_name: str = ""
    higher_is_better: bool = True

    # ------------------------------------------------------------------
    # Queries used by the autotuner
    # ------------------------------------------------------------------
    def accuracy_variables(self) -> tuple[TunableInfo, ...]:
        return tuple(t for t in self.tunables if t.is_accuracy_variable)

    def tunable(self, key: str) -> TunableInfo:
        for info in self.tunables:
            if info.key == key:
                return info
        raise KeyError(key)

    def root_bins(self) -> tuple[float, ...]:
        for name, bins in self.accuracy_bins:
            if name == self.root:
                return bins
        return ()

    # ------------------------------------------------------------------
    # XML round trip
    # ------------------------------------------------------------------
    def to_xml(self) -> str:
        root = ET.Element("traininginfo", root=self.root,
                          metric=self.metric_name,
                          higher_is_better=str(self.higher_is_better))
        instances = ET.SubElement(root, "instances")
        for prefix in self.instances:
            ET.SubElement(instances, "instance", prefix=prefix)
        calls = ET.SubElement(root, "callgraph")
        for caller, callee in self.call_graph:
            ET.SubElement(calls, "call", caller=caller, callee=callee)
        bins = ET.SubElement(root, "accuracybins")
        for name, targets in self.accuracy_bins:
            node = ET.SubElement(bins, "bins", transform=name)
            node.text = ",".join(f"{t:g}" for t in targets)
        tunables = ET.SubElement(root, "tunables")
        for info in self.tunables:
            ET.SubElement(
                tunables, "tunable", key=info.key, kind=info.kind,
                is_accuracy_variable=str(info.is_accuracy_variable),
                accuracy_direction=str(info.accuracy_direction),
                affects_accuracy=str(info.affects_accuracy),
                domain=info.domain)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "TrainingInfo":
        root = ET.fromstring(text)
        instances = tuple(node.attrib["prefix"]
                          for node in root.find("instances"))
        call_graph = tuple((node.attrib["caller"], node.attrib["callee"])
                           for node in root.find("callgraph"))
        bins = []
        for node in root.find("accuracybins"):
            targets = tuple(float(x) for x in node.text.split(",")) \
                if node.text else ()
            bins.append((node.attrib["transform"], targets))
        tunables = tuple(
            TunableInfo(
                key=node.attrib["key"], kind=node.attrib["kind"],
                is_accuracy_variable=node.attrib["is_accuracy_variable"]
                == "True",
                accuracy_direction=int(node.attrib["accuracy_direction"]),
                affects_accuracy=node.attrib["affects_accuracy"] == "True",
                domain=node.attrib["domain"])
            for node in root.find("tunables"))
        return cls(root=root.attrib["root"], instances=instances,
                   call_graph=call_graph, accuracy_bins=tuple(bins),
                   tunables=tunables, metric_name=root.attrib["metric"],
                   higher_is_better=root.attrib["higher_is_better"] == "True")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_xml())

    @classmethod
    def load(cls, path) -> "TrainingInfo":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_xml(handle.read())


def build_training_info(root: Transform,
                        transforms: Mapping[str, Transform],
                        instances: Mapping[str, Instance],
                        space: ParameterSpace) -> TrainingInfo:
    """Extract the training info from the compiled representation."""
    call_graph = tuple(sorted(
        (name, site.target)
        for name, transform in transforms.items()
        for site in transform.call_sites.values()))
    accuracy_bins = tuple(sorted(
        (name, transform.accuracy_bins)
        for name, transform in transforms.items()
        if transform.is_variable_accuracy))

    tunables: list[TunableInfo] = []
    for param in space:
        if isinstance(param, ChoiceSiteParam):
            tunables.append(TunableInfo(
                key=param.name, kind="choice",
                affects_accuracy=param.affects_accuracy,
                domain=f"choices={param.num_choices}"))
        else:
            tunables.append(TunableInfo(
                key=param.name, kind="sizevalue",
                is_accuracy_variable=param.is_accuracy_variable,
                accuracy_direction=param.accuracy_direction,
                affects_accuracy=param.affects_accuracy,
                domain=f"[{param.lo:g},{param.hi:g}]"))

    metric = root.accuracy_metric
    return TrainingInfo(
        root=root.name,
        instances=tuple(sorted(instances)),
        call_graph=call_graph,
        accuracy_bins=accuracy_bins,
        tunables=tuple(tunables),
        metric_name=metric.name if metric is not None else "",
        higher_is_better=metric.higher_is_better if metric is not None
        else True)
