"""Parallel subproblem execution engine for the RASA pipeline.

Partitioning (paper Section IV) decomposes the global placement MIP into
independent subproblems, which makes the solve phase embarrassingly
parallel — the same observation POP (Narayanan et al.) exploits for
granular allocation problems.  This module runs the per-subproblem
``(select, solve)`` step in a :class:`~concurrent.futures.ProcessPoolExecutor`:

* :func:`run_task` is the worker entry point.  It installs a fresh tracer
  and metrics registry, runs :func:`select_and_solve`, and ships the
  solve outcome *plus* the recorded observability payload (span trees,
  raw metric samples, the incumbent trajectory) back to the parent, which
  folds them into its own tracer/registry so ``--trace-out`` and
  ``--metrics-out`` stay complete under parallelism.
* :class:`ParallelDispatcher` submits one task per subproblem, enforces a
  per-task wall-clock deadline derived from the task's solver budget, and
  degrades gracefully: a crashed, failed, or timed-out worker yields a
  :class:`TaskFailure`, and the scheduler's one solve loop solves that
  shard in-process when its merge turn comes.

Determinism: the dispatcher reports outcomes keyed by task index, and
:class:`~repro.core.rasa.RASAScheduler` applies them in the fixed
affinity-descending order regardless of completion order, so for a given
seed the merged assignment is bit-identical to sequential mode whenever
the per-subproblem solves themselves are budget-deterministic (i.e. they
finish within their budget — always true without an overall time limit).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.obs import (
    MetricsRegistry,
    NullProfiler,
    NullTracer,
    Span,
    SpanProfiler,
    Tracer,
    get_logger,
    get_metrics,
    get_profiler,
    get_tracer,
    kv,
    use_metrics,
    use_profiler,
    use_tracer,
)
from repro.partitioning.base import Subproblem
from repro.selection.selector import AlgorithmSelector
from repro.solvers.base import SchedulingAlgorithm, SolveResult, Stopwatch


class DefaultAlgorithmFactory:
    """Maps a selector label to an algorithm instance.

    A module-level class (rather than a closure) so tasks can pickle it
    into worker processes.
    """

    def __call__(self, label: str) -> SchedulingAlgorithm:
        from repro.solvers.column_generation import ColumnGenerationAlgorithm
        from repro.solvers.mip import MIPAlgorithm

        if label == "mip":
            return MIPAlgorithm()
        return ColumnGenerationAlgorithm()


@dataclass
class SubproblemTask:
    """One unit of parallel work: select an algorithm and solve one shard.

    Attributes:
        index: The subproblem's index in the partition (the merge key).
        subproblem: The self-contained shard to solve.
        selector: Algorithm selector; must be picklable.
        algorithm_factory: Label → algorithm mapping; must be picklable.
        budget: Per-subproblem solver time budget (seconds; None or
            ``inf`` for unlimited).
        collect_spans: Record and return tracing spans (enabled when the
            parent's tracer is live).
        profile: Capture a cProfile hotspot table on the worker's solve
            span (see :mod:`repro.obs.profile`); the table rides the span
            tree back to the parent through ``TaskOutcome.spans``.
    """

    index: int
    subproblem: Subproblem
    selector: AlgorithmSelector
    algorithm_factory: Callable[[str], SchedulingAlgorithm]
    budget: float | None = None
    collect_spans: bool = False
    profile: bool = False


@dataclass
class TaskOutcome:
    """A completed task: the solve outcome plus serialized observability.

    The subproblem's :class:`~repro.core.problem.RASAProblem` is *not*
    shipped back — only the assignment matrix — so the payload stays small
    and the parent rebuilds the :class:`SolveResult` against its own copy
    of the shard via :meth:`to_solve_result`.
    """

    index: int
    label: str
    x: np.ndarray
    algorithm: str
    status: str
    runtime_seconds: float
    objective: float
    trajectory: list[tuple[float, float]] = field(default_factory=list)
    bound: float | None = None
    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    started_monotonic: float = 0.0

    def to_solve_result(self, problem: RASAProblem) -> SolveResult:
        """Rebuild the worker's :class:`SolveResult` against ``problem``."""
        return SolveResult(
            assignment=Assignment(problem, self.x),
            algorithm=self.algorithm,
            status=self.status,
            runtime_seconds=self.runtime_seconds,
            objective=self.objective,
            trajectory=list(self.trajectory),
            bound=self.bound,
        )


@dataclass
class TaskFailure:
    """A task the pool could not complete; the caller retries it inline.

    Attributes:
        index: The failed task's subproblem index.
        kind: ``"timeout"``, ``"crash"`` (worker process died), or
            ``"error"`` (the solve raised).
        error: Human-readable cause.
    """

    index: int
    kind: str
    error: str


def select_and_solve(
    subproblem: Subproblem,
    selector: AlgorithmSelector,
    algorithm_factory: Callable[[str], SchedulingAlgorithm],
    budget: float | None,
) -> tuple[str, SolveResult]:
    """Run the per-subproblem (select, solve) step with full instrumentation.

    The scheduler's solve loop calls this against the process-wide
    tracer/metrics, pool workers call it against their own fresh
    instances — so spans and metrics have an identical shape regardless
    of where the solve ran.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    clock = Stopwatch()
    with tracer.span("rasa.select", services=subproblem.num_services) as span:
        label = selector.select(subproblem)
        span.set_tag("algorithm", label)
    metrics.histogram("rasa.phase.select.seconds").observe(clock.elapsed)
    algorithm = algorithm_factory(label)
    solve_clock = Stopwatch()
    with tracer.span(
        "rasa.solve",
        algorithm=label,
        budget=None if budget is None or budget == np.inf else budget,
        services=subproblem.num_services,
    ) as span:
        with get_profiler().capture(span):
            result = algorithm.solve(subproblem.problem, time_limit=budget)
        span.set_tag("status", result.status)
        span.set_tag("objective", result.objective)
    metrics.histogram("rasa.phase.solve.seconds").observe(solve_clock.elapsed)
    metrics.counter("rasa.subproblems.solved").inc()
    return label, result


def run_task(task: SubproblemTask) -> TaskOutcome:
    """Worker entry point: solve one task under fresh obs instruments.

    Runs inside a pool process.  Exceptions propagate — the executor
    pickles them back to the parent, where the dispatcher converts them
    into a :class:`TaskFailure`.
    """
    started = time.monotonic()
    tracer = Tracer() if task.collect_spans else NullTracer()
    registry = MetricsRegistry()
    profiler = SpanProfiler() if task.profile else NullProfiler()
    with use_tracer(tracer), use_metrics(registry), use_profiler(profiler):
        label, result = select_and_solve(
            task.subproblem, task.selector, task.algorithm_factory, task.budget
        )
    return TaskOutcome(
        index=task.index,
        label=label,
        x=np.asarray(result.assignment.x),
        algorithm=result.algorithm,
        status=result.status,
        runtime_seconds=result.runtime_seconds,
        objective=result.objective,
        trajectory=list(result.trajectory),
        bound=result.bound,
        spans=tracer.finished_roots(),
        metrics=registry.dump_raw(),
        started_monotonic=started,
    )


class ParallelDispatcher:
    """Fans subproblem tasks out to a process pool and collects outcomes.

    Args:
        workers: Maximum worker processes.
        timeout_factor: A task's wall-clock deadline is
            ``budget * timeout_factor + timeout_margin`` — solvers enforce
            their own budget, so the deadline only catches hung or wedged
            workers.  Tasks with an unlimited budget have no deadline.
        timeout_margin: Constant slack added to every deadline (covers
            pickling, fork, and queueing time; deadlines are measured from
            submission, not task start).
    """

    def __init__(
        self,
        workers: int,
        timeout_factor: float = 2.0,
        timeout_margin: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout_factor = timeout_factor
        self.timeout_margin = timeout_margin

    # ------------------------------------------------------------------
    def run(self, tasks: list[SubproblemTask]) -> dict[int, TaskOutcome | TaskFailure]:
        """Execute every task; never raises for per-task problems.

        Returns:
            Outcome or failure per task, keyed by ``task.index``.  The
            caller decides what to do with failures (the scheduler retries
            them sequentially with redistributed budgets).
        """
        logger = get_logger("core.parallel")
        metrics = get_metrics()
        results: dict[int, TaskOutcome | TaskFailure] = {}
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, len(tasks)))
        )
        try:
            submitted = time.monotonic()
            futures: list[tuple[SubproblemTask, Future, float | None]] = []
            for task in tasks:
                deadline = None
                if task.budget is not None and task.budget != np.inf:
                    deadline = (
                        submitted + task.budget * self.timeout_factor + self.timeout_margin
                    )
                futures.append((task, pool.submit(run_task, task), deadline))
            for task, future, deadline in futures:
                results[task.index] = self._collect(task, future, deadline, logger)
                if isinstance(results[task.index], TaskFailure):
                    metrics.counter("rasa.parallel.task_failures").inc()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return results

    def _collect(
        self,
        task: SubproblemTask,
        future: Future,
        deadline: float | None,
        logger,
    ) -> TaskOutcome | TaskFailure:
        """Await one future, mapping every failure mode to a TaskFailure."""
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            logger.warning(
                "worker timeout %s", kv(subproblem=task.index, budget=task.budget)
            )
            return TaskFailure(
                index=task.index,
                kind="timeout",
                error=f"no result within {timeout:.1f}s deadline",
            )
        except BrokenProcessPool as exc:
            logger.warning("worker crash %s", kv(subproblem=task.index, error=str(exc)))
            return TaskFailure(
                index=task.index, kind="crash", error=f"worker process died: {exc}"
            )
        except Exception as exc:  # solve raised inside the worker
            logger.warning("worker error %s", kv(subproblem=task.index, error=str(exc)))
            return TaskFailure(
                index=task.index, kind="error", error=f"{type(exc).__name__}: {exc}"
            )
