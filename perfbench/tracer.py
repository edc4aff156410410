"""Span tracing installed from outside the program under test.

The traced run wraps public functions and methods of the system's
modules; nothing under ``src/`` changes.  Each wrapped call becomes a
span: layer, thread, start, end, the enclosing span on the same thread
and optional counters.  Spans stay in memory and are written once, at
the end of the run.

A layer's *self* time is its spans' durations minus the time covered by
their child spans on the same thread.  Its *inclusive* time counts only
outermost spans of the layer, so a layer that calls itself (nested
kernels, public helpers calling each other) is never counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Mapping

from checks import mean, nearest_rank, tail_percentile

__all__ = ["Tracer", "Clock", "LAYERS", "layer_metrics", "breakdown",
           "attribution"]

#: Name of the thread that runs the workload (and the load generator).
MAIN_THREAD = "MainThread"


class Span:
    """One recorded call."""

    __slots__ = ("layer", "thread", "start", "end", "parent", "child",
                 "outermost", "phase", "attrs")

    def __init__(self, layer: str, thread: str, start: float,
                 parent: "Span | None", outermost: bool, phase: str):
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0          # time covered by direct children
        self.outermost = outermost
        self.phase = phase
        self.attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _length(position: int, key: str) -> Callable:
    """Record the length of one positional sequence argument."""
    def note(args, kwargs, result):
        return {key: len(args[position])}
    return note


def _cost(args, kwargs, result):
    return {"cost": float(result.metrics.cost)}


def _fused(args, kwargs, result):
    # execute_stacked returns None when the fused call declined and
    # the requests fall back to per-request dispatch.
    return {"stacked": 0 if result is None else len(args[1])}


def _serve(args, kwargs, result):
    return {"batch": len(args[1]),
            "seeds": [request.seed for request in args[1]]}


def _submit(args, kwargs, result):
    return {"seed": args[1].seed}


#: ``(layer, module, attribute, note)``.  ``Class.method`` wraps a
#: method; ``*`` wraps every public function the module defines.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("compiler.compile", "repro.compiler.compile", "compile_program",
     None),
    ("serving.store.load", "repro.serving.store",
     "ArtifactStore.load_tuned", None),
    ("autotuner", "repro.api.project", "Project.tune", None),
    ("autotuner.comparison", "repro.autotuner.comparison",
     "Comparator.compare", None),
    ("autotuner.guided", "repro.autotuner.guided", "guided_mutation",
     None),
    ("autotuner.pruning", "repro.autotuner.pruning", "prune_population",
     None),
    ("autotuner.testing", "repro.autotuner.testing",
     "ProgramTestHarness.run_trials", _length(1, "trials")),
    ("autotuner.testing.dispatch", "repro.autotuner.testing",
     "ProgramTestHarness.run_requests", _length(1, "requests")),
    ("autotuner.testing.training_input", "repro.autotuner.testing",
     "ProgramTestHarness.training_input", None),
    ("autotuner.testing.input_gen", "repro.suite.poisson", "generate",
     None),
    ("autotuner.testing.input_gen", "repro.suite.binpacking", "generate",
     None),
    ("runtime.backends.run_batch", "repro.runtime.backends.serial",
     "SerialBackend.run_batch", _length(2, "requests")),
    ("runtime.batching", "repro.runtime.batching", "run_batch_stacked",
     _length(1, "requests")),
    ("runtime.batching.fused", "repro.runtime.batching",
     "execute_stacked", _fused),
    ("compiler.program.execute", "repro.compiler.program",
     "CompiledProgram.execute", _cost),
    ("compiler.program.accuracy_of", "repro.compiler.program",
     "CompiledProgram.accuracy_of", None),
    ("multigrid.relax", "repro.multigrid.relax", "*", None),
    ("multigrid.grids", "repro.multigrid.grids", "*", None),
    ("linalg.banded", "repro.linalg.banded", "*", None),
    ("linalg.poisson_ops", "repro.linalg.poisson_ops", "*", None),
    ("binpacking.algorithms", "repro.binpacking.algorithms", "*", None),
    ("runtime.policy.plan_request", "repro.runtime.policy",
     "plan_request", None),
    ("serving.engine.serve", "repro.serving.engine",
     "ServingEngine.serve", _serve),
    ("serving.frontdoor.submit", "repro.serving.frontdoor",
     "FrontDoor.submit", _submit),
    ("serving.telemetry.record_batch", "repro.serving.telemetry",
     "ServingTelemetry.record_batch", None),
)


class Tracer:
    """Records spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: "setup", "timed" or "check"; spans are tagged at their start.
        self.phase = "setup"
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.active = [], {}
        return local.stack, local.active

    def enter(self, layer: str) -> Span:
        stack, active = self._state()
        depth = active.get(layer, 0)
        active[layer] = depth + 1
        span = Span(layer, threading.current_thread().name,
                    time.perf_counter(), stack[-1] if stack else None,
                    depth == 0, self.phase)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack, active = self._state()
        stack.pop()
        active[span.layer] -= 1
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)   # list.append is atomic under the GIL

    def wrap(self, layer: str, fn: Callable,
             note: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function wherever the program bound it.

        Modules import functions by name (``from repro.x import f``),
        so a function is rebound in every loaded ``repro`` module
        namespace, and in module-level dicts such as algorithm tables,
        that hold the same object.  Install before compiling programs:
        compiled rules capture function objects when they are built.
        """
        for layer, module_name, attribute, note in LAYERS:
            module = importlib.import_module(module_name)
            if attribute == "*":
                for name, value in list(vars(module).items()):
                    if (not name.startswith("_")
                            and inspect.isfunction(value)
                            and value.__module__ == module_name):
                        self._rebind(value, self.wrap(layer, value, note))
            elif "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self.wrap(layer, original, note))
            else:
                original = getattr(module, attribute)
                self._rebind(original, self.wrap(layer, original, note))

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)
                elif type(value) is dict and not key.startswith("__"):
                    for item_key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, item_key,
                                                  original))
                            value[item_key] = wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        index = {id(span): position
                 for position, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for position, span in enumerate(self.spans):
                record = {"id": position, "layer": span.layer,
                          "thread": span.thread, "phase": span.phase,
                          "start": span.start, "end": span.end,
                          "parent": (None if span.parent is None
                                     else index.get(id(span.parent)))}
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record) + "\n")


class Clock:
    """Times one measured region; under a tracer, also marks it.

    Spans that start inside the region are tagged ``timed``; on the
    main thread they nest under one ``bench`` span, whose self time
    is the benchmark's own share (load generation, bookkeeping).
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.elapsed = 0.0
        self._span: Span | None = None
        self._start = 0.0

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.phase = "timed"
            self._span = self.tracer.enter("bench")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.exit(self._span)
            self.tracer.phase = "setup"
        self.elapsed = time.perf_counter() - self._start


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
KERNEL_LAYERS = ("multigrid.relax", "multigrid.grids", "linalg.banded",
                 "linalg.poisson_ops", "binpacking.algorithms")


def layer_metrics(tracer: Tracer, regions: int, setups: int,
                  extras: Mapping[str, float]
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the spans of ``regions`` timed regions.

    Times and counts are per timed region (one tune, or one serve
    run); set-up layers are per set-up.  ``extras`` supplies what the
    workload measured outside the tracer (front-door counters, load
    generator lag).
    """
    per = 1.0 / max(1, regions)
    timed: dict[str, list[Span]] = defaultdict(list)
    setup: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.phase == "timed":
            timed[span.layer].append(span)
        elif span.phase == "setup":
            setup[span.layer].append(span)

    def inclusive(layer: str, table=timed) -> float:
        return sum(s.duration for s in table[layer] if s.outermost)

    def calls(layer: str) -> float:
        return len(timed[layer]) * per

    def attr(layer: str, key: str) -> list:
        return [s.attrs[key] for s in timed[layer] if s.attrs]

    values: dict[str, float] = {}
    samples: dict[str, str] = {}

    def put(name: str, value: float, note: str) -> None:
        values[name] = float(value)
        samples[name] = note

    span_note = f"per timed region ({regions})"
    per_setup = 1.0 / max(1, setups)
    put("compiler.compile_s", inclusive("compiler.compile", setup)
        * per_setup, f"per set-up ({setups})")
    put("serving.store.load_s", inclusive("serving.store.load", setup)
        * per_setup, f"per set-up ({setups})")

    # --- tuning -------------------------------------------------------
    put("autotuner.self_s", (inclusive("autotuner")
                             - inclusive("autotuner.testing")) * per,
        "tune wall minus harness time, " + span_note)
    put("autotuner.comparison.calls", calls("autotuner.comparison"),
        span_note)
    put("autotuner.comparison.s", inclusive("autotuner.comparison") * per,
        span_note)
    put("autotuner.guided.s", inclusive("autotuner.guided") * per,
        span_note)
    put("autotuner.pruning.s", inclusive("autotuner.pruning") * per,
        span_note)
    put("autotuner.trials_run", sum(attr("autotuner.testing", "trials"))
        * per, span_note)
    generated = len(timed["autotuner.testing.input_gen"])
    lookups = len(timed["autotuner.testing.training_input"])
    put("autotuner.testing.input_gen.calls", generated * per, span_note)
    put("autotuner.testing.input_gen.s",
        inclusive("autotuner.testing.input_gen") * per, span_note)
    batches = attr("autotuner.testing.dispatch", "requests")
    put("autotuner.testing.batches", len(batches) * per, span_note)
    put("autotuner.testing.batch_mean", mean(batches),
        f"requests over {len(batches)} batches")
    put("autotuner.testing.cache_hit_ratio",
        1.0 - generated / lookups if lookups else 0.0,
        f"training-input lookups served without generating, of "
        f"{lookups}")

    # --- execution ----------------------------------------------------
    dispatched = attr("runtime.backends.run_batch", "requests")
    stacked = [n for n in attr("runtime.batching.fused", "stacked") if n]
    executions = sum(dispatched) + sum(stacked)
    put("runtime.backends.run_batch.calls",
        calls("runtime.backends.run_batch"), span_note)
    put("runtime.backends.run_batch.s",
        inclusive("runtime.backends.run_batch") * per, span_note)
    put("runtime.batching.stacked_calls", len(stacked) * per, span_note)
    put("runtime.batching.stacked_ratio",
        sum(stacked) / executions if executions else 0.0,
        f"stacked requests of {executions} executed")
    put("runtime.batching.mean_stack", mean(stacked),
        f"requests over {len(stacked)} fused calls")
    put("runtime.batching.s", inclusive("runtime.batching") * per,
        span_note)
    executes = timed["compiler.program.execute"]
    put("compiler.program.execute.calls", len(executes) * per, span_note)
    put("compiler.program.execute.s",
        inclusive("compiler.program.execute") * per, span_note)
    put("compiler.program.self_s",
        sum(s.self_time for s in executes) * per,
        "execute minus kernels and metric, " + span_note)
    put("compiler.program.cost_units",
        sum(attr("compiler.program.execute", "cost")) * per, span_note)
    put("compiler.program.accuracy_of.s",
        inclusive("compiler.program.accuracy_of") * per, span_note)
    for layer in KERNEL_LAYERS:
        put(layer + ".s", inclusive(layer) * per, span_note)

    # --- serving ------------------------------------------------------
    put("runtime.policy.plan_request.calls",
        calls("runtime.policy.plan_request"), span_note)
    put("runtime.policy.plan_request.s",
        inclusive("runtime.policy.plan_request") * per, span_note)
    serves = timed["serving.engine.serve"]
    served = sum(s.attrs["batch"] for s in serves if s.attrs)
    waves = [s.attrs["requests"] for s in timed["runtime.batching"]
             if s.attrs and s.parent is not None
             and s.parent.layer == "serving.engine.serve"]
    put("serving.engine.waves", len(waves) * per, span_note)
    put("serving.engine.exec_per_request",
        sum(waves) / served if served else 0.0,
        f"executions over {served} requests")
    put("serving.engine.serve.calls", len(serves) * per, span_note)
    put("serving.engine.batch_mean", mean(waves),
        f"requests over {len(waves)} waves")
    put("serving.engine.self_s", sum(s.self_time for s in serves) * per,
        span_note)
    submitted = {s.attrs["seed"]: s.start
                 for s in timed["serving.frontdoor.submit"] if s.attrs}
    door = [s for s in serves if s.attrs and s.thread != MAIN_THREAD]
    waits = [s.start - submitted[seed] for s in door
             for seed in s.attrs["seeds"] if seed in submitted]
    if waits:
        percent, tail = tail_percentile(waits)
        put("serving.frontdoor.queue_wait_p50_ms",
            1e3 * nearest_rank(waits, 50.0), f"{len(waits)} requests")
        put("serving.frontdoor.queue_wait_tail_ms", 1e3 * tail,
            f"p{percent:g} of {len(waits)} requests")
    else:
        put("serving.frontdoor.queue_wait_p50_ms", 0.0, "no front door")
        put("serving.frontdoor.queue_wait_tail_ms", 0.0, "no front door")
    door_batches = [s.attrs["batch"] for s in door]
    put("serving.frontdoor.batch_mean", mean(door_batches),
        f"requests over {len(door_batches)} micro-batches")
    for name in ("serving.frontdoor.rejected", "serving.frontdoor.expired",
                 "serving.frontdoor.degraded", "loadgen.lag_tail_ms",
                 "loadgen.backlog_end"):
        put(name, extras.get(name, 0.0), "measured by the workload")
    put("serving.telemetry.record_batch.s",
        inclusive("serving.telemetry.record_batch") * per, span_note)
    return values, samples


def breakdown(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """``(layer, calls, inclusive s, self s)`` over timed spans, by self
    time, largest first."""
    rows: dict[str, list] = {}
    for span in tracer.spans:
        if span.phase != "timed":
            continue
        row = rows.setdefault(span.layer, [0, 0.0, 0.0])
        row[0] += 1
        if span.outermost:
            row[1] += span.duration
        row[2] += span.self_time
    return sorted(((layer, *row) for layer, row in rows.items()),
                  key=lambda item: -item[3])


def attribution(tracer: Tracer) -> tuple[float, float]:
    """``(sum of self times, most negative self time)`` of the timed
    spans on the main thread; the sum must equal the timed wall."""
    main = [s for s in tracer.spans
              if s.phase == "timed" and s.thread == MAIN_THREAD]
    worst = min((s.self_time for s in tracer.spans), default=0.0)
    return sum(s.self_time for s in main), worst
