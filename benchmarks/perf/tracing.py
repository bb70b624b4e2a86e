"""Benchmark-owned spans around the layers' public callables.

The traced pass rebinds a fixed list of ``repro`` callables to timing
wrappers (nothing under ``src/`` is edited): class attributes are set on
the class, module-level functions are rebound in every loaded ``repro.*``
module whose attribute *is* the original, so ``from x import f`` call
sites are covered too.  Each call records one span — name, start, end,
parent span, thread, run id — in memory; ``Recorder.dump`` writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


class Span:
    """One timed call.  ``child_s`` is the time its child spans covered."""

    __slots__ = ("name", "run", "start", "end", "parent", "thread",
                 "child_s", "attrs")

    def __init__(self, name: str, run: str, parent: "Span | None") -> None:
        self.name = name
        self.run = run
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s

    def ancestor(self, name: str) -> "Span | None":
        """Nearest enclosing span called ``name``."""
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


class Recorder:
    """In-memory span sink shared by every wrapper of one traced pass.

    ``run`` is the identifier the spans of one operation share (the
    workload sets it before each repetition).  ``delays`` maps a span name
    to seconds slept inside that span — the self-check's injected fault.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.delays: dict[str, float] = {}
        self._local = threading.local()

    def stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            calls, busy, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (
                calls + 1, busy + span.seconds, own + span.self_seconds
            )
        return out

    def dump(self, path) -> None:
        """Write every span as JSON (ids are positions in the list)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        document = [
            {
                "id": i,
                "name": span.name,
                "run": span.run,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None
                else index.get(id(span.parent)),
                "thread": span.thread,
                **({"attrs": span.attrs} if span.attrs else {}),
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": document}, handle)


#: Span a pool job runs under; its start minus the time it was submitted
#: is the time the job waited in the slot's queue.
POOL_JOB_SPAN = "service.pool.job"

Note = Callable[[tuple, dict, Any], dict]


def _wrap(recorder: Recorder, name: str, note: "Note | None",
          fn: Callable) -> Callable:
    """``fn`` recording one span called ``name`` per call."""
    spans, clock = recorder.spans, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        span = Span(name, recorder.run, stack[-1] if stack else None)
        stack.append(span)
        span.start = clock()
        try:
            delay = recorder.delays.get(name)
            if delay:
                time.sleep(delay)
            result = fn(*args, **kwargs)
        finally:
            span.end = clock()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.end - span.start
            spans.append(span)
        if note is not None:
            span.attrs = note(args, kwargs, result)
        return result

    return wrapper


def _wrap_submit(recorder: Recorder, name: str, note: "Note | None",
                 fn: Callable) -> Callable:
    """``ControllerPool.submit`` wrapper that also spans the queued job."""

    @functools.wraps(fn)
    def submit(self, tenant, job):
        submitted = time.perf_counter()
        timed_job = _wrap(
            recorder, POOL_JOB_SPAN,
            lambda args, kwargs, result: {"submitted": submitted}, job,
        )
        return fn(self, tenant, timed_job)

    return _wrap(recorder, name, note, submit)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        span: Span name, ``<layer>.<label>``; the per-layer metrics
            ``<span>_calls`` / ``<span>_s`` derive from it.
        module: Module that defines the callable.
        qualname: ``function`` or ``Class.attribute`` inside that module.
        workload: A workload on which the self-check expects a call.
        note: Optional ``(args, kwargs, result) -> dict`` of span attributes.
        wrap: What builds the wrapper; only ``ControllerPool.submit`` needs
            more than a plain span.
    """

    span: str
    module: str
    qualname: str
    workload: str
    note: "Note | None" = None
    wrap: Callable = _wrap


def _note_status(args, kwargs, result) -> dict:
    return {"status": result.status}


def _note_partition(args, kwargs, result) -> dict:
    return {
        "subproblems": len(result.subproblems),
        "affinity_retained": float(result.affinity_retained),
    }


def _note_label(args, kwargs, result) -> dict:
    return {"label": result}


def _note_action(args, kwargs, result) -> dict:
    return {"action": result.action}


def _note_plan(args, kwargs, result) -> dict:
    return {"commands": result.num_commands, "steps": result.num_steps}


def _note_events(args, kwargs, result) -> dict:
    return {"events": len(result)}


def _note_wal(args, kwargs, result) -> dict:
    # ``args[0]`` is the CheckpointStore; the WAL only grows between
    # compactions, so its size after the append is this record's end offset.
    return {"wal_size": args[0].wal_path.stat().st_size}


TARGETS: tuple[Target, ...] = (
    Target("workloads.generate", "repro.workloads.generator",
           "generate_cluster", "loop_m1_large"),
    Target("cluster.replay.load", "repro.cluster.replay",
           "EventTrace.load", "replay_week"),
    Target("cluster.replay.advance", "repro.cluster.replay",
           "EventStreamCursor.advance_to", "replay_week", _note_events),
    Target("cluster.collector.collect", "repro.cluster.collector",
           "DataCollector.collect", "loop_m1_large"),
    Target("cluster.cronjob.run_once", "repro.cluster.cronjob",
           "CronJobController.run_once", "replay_week", _note_action),
    Target("cluster.scheduler.place_missing", "repro.cluster.scheduler",
           "DefaultScheduler.place_missing", "loop_m1_large"),
    Target("cluster.state.placement", "repro.cluster.state",
           "ClusterState.placement", "loop_m1_large"),
    Target("cluster.state.named_placement", "repro.cluster.state",
           "ClusterState.named_placement", "loop_m1_large"),
    Target("cluster.state.create_container", "repro.cluster.state",
           "ClusterState.create_container", "loop_m1_large"),
    Target("core.rasa.schedule", "repro.core.rasa",
           "RASAScheduler.schedule", "optimize_m3"),
    Target("core.rasa.select_and_solve", "repro.core.parallel",
           "select_and_solve", "optimize_m3"),
    Target("core.solution.assignment_init", "repro.core.solution",
           "Assignment.__init__", "loop_m1_large"),
    Target("core.solution.gained_affinity", "repro.core.solution",
           "Assignment.gained_affinity", "loop_m1_large"),
    Target("core.solution.merge", "repro.core.solution",
           "Assignment.merge_subassignment", "loop_m1_large"),
    Target("partitioning.partition", "repro.partitioning.multistage",
           "MultiStagePartitioner.partition", "loop_m1_large",
           _note_partition),
    Target("selection.select", "repro.selection.selector",
           "HeuristicSelector.select", "loop_m1_large", _note_label),
    Target("solvers.mip.solve", "repro.solvers.mip",
           "MIPAlgorithm.solve", "optimize_m3", _note_status),
    Target("solvers.mip.build_model", "repro.solvers.mip",
           "build_rasa_model", "optimize_m3"),
    Target("solvers.milp_backend.solve_milp", "repro.solvers.milp_backend",
           "solve_milp", "optimize_m3"),
    Target("solvers.column_generation.solve",
           "repro.solvers.column_generation",
           "ColumnGenerationAlgorithm.solve", "replay_week"),
    Target("solvers.patterns.price_mip", "repro.solvers.patterns",
           "price_pattern_mip", "replay_week"),
    Target("solvers.lp.solve_lp", "repro.solvers.lp",
           "solve_lp", "replay_week"),
    Target("solvers.greedy.solve", "repro.solvers.greedy",
           "GreedyAlgorithm.solve", "loop_m1_large"),
    Target("solvers.greedy.repair", "repro.solvers.greedy",
           "repair_unplaced", "loop_m1_large"),
    Target("migration.path.build", "repro.migration.path",
           "MigrationPathBuilder.build", "loop_m1_large", _note_plan),
    Target("migration.executor.execute", "repro.migration.executor",
           "MigrationExecutor.execute", "optimize_m3"),
    Target("durability.append_cycle", "repro.durability.checkpoint",
           "CheckpointStore.append_cycle", "replay_week", _note_wal),
    Target("durability.write_snapshot", "repro.durability.checkpoint",
           "CheckpointStore.write_snapshot", "loop_m1_large"),
    Target("durability.capture_live", "repro.durability.loop",
           "capture_live", "loop_m1_large"),
    Target("service.tenant.run_cycles", "repro.service.tenant",
           "Tenant.run_cycles", "service_mixed"),
    Target("service.tenant.push_snapshot", "repro.service.tenant",
           "Tenant.push_snapshot", "service_mixed"),
    Target("service.tenant.summary", "repro.service.tenant",
           "Tenant.summary", "service_mixed"),
    Target("service.tenant.events_since", "repro.service.tenant",
           "Tenant.events_since", "service_mixed"),
    Target("service.pool.submit", "repro.service.pool",
           "ControllerPool.submit", "service_mixed", wrap=_wrap_submit),
)

def resolve(target: Target) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a target.

    Raises:
        AttributeError / ImportError: When the target was renamed or moved.
    """
    module = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _rewrap(recorder: Recorder, target: Target, raw: Any) -> Any:
    """Wrap ``raw`` keeping its descriptor kind."""
    def make(fn):
        return target.wrap(recorder, target.span, target.note, fn)

    if isinstance(raw, property):
        return property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


@contextmanager
def installed(recorder: Recorder):
    """Install every wrapper for the duration of the block."""
    # Import the modules that bind targets with ``from x import f`` before
    # looking for those bindings.
    for name in ("repro.api", "repro.cli", "repro.service.app",
                 "repro.durability.loop", "repro.cluster.replay"):
        importlib.import_module(name)
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            owner, name, raw = resolve(target)
            wrapped = _rewrap(recorder, target, raw)
            if isinstance(owner, type):
                undo.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(name) is raw
                ):
                    undo.append((module, name, raw))
                    setattr(module, name, wrapped)
        yield recorder
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
