"""Configuration representation: decision trees, entries, parameter spaces.

A *configuration* (Section 5.2 of the paper) is an assignment of
decisions to every available choice: decision trees mapping input size
to an algorithm for each choice site, cutoff values, switches, accuracy
variables, and user-defined parameters — every one of them a decision
tree over input size.  The autotuner manipulates
configurations through the mutators in :mod:`repro.autotuner.mutators`.
"""

from repro.config.decision_tree import SizeDecisionTree
from repro.config.configuration import (
    Configuration,
    ConfigEntry,
    RecordingConfig,
)
from repro.config.parameters import (
    ParameterSpace,
    ChoiceSiteParam,
    SizeValueParam,
)

__all__ = [
    "SizeDecisionTree",
    "Configuration",
    "ConfigEntry",
    "RecordingConfig",
    "ParameterSpace",
    "ChoiceSiteParam",
    "SizeValueParam",
]
