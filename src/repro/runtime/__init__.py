"""Runtime support: timing/cost accounting, traces, tuned-program
execution, the bin-selection/escalation policy, and the pluggable
trial-execution backends."""

from repro.runtime.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    TrialCache,
    TrialOutcome,
    TrialRequest,
    backend_from_spec,
)
from repro.runtime.policy import (
    BinDecision,
    escalation_ladder,
    most_accurate_bin,
    select_bin,
)
from repro.runtime.timing import CostAccumulator, Metrics, WallTimer
from repro.runtime.trace import ExecutionTrace, TraceEvent

__all__ = [
    "BinDecision",
    "select_bin",
    "most_accurate_bin",
    "escalation_ladder",
    "CostAccumulator",
    "Metrics",
    "WallTimer",
    "ExecutionTrace",
    "TraceEvent",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "TrialCache",
    "TrialRequest",
    "TrialOutcome",
    "backend_from_spec",
]
